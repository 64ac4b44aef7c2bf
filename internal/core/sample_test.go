// Property-based tests for the stratified reservoir sampler behind the
// scaled selection path. The sampler is pure min-wise hashing, so every
// property is checked across a sweep of seeds, budgets and candidate
// subsets rather than a single lucky configuration.
package core

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/bitset"
	"subtab/internal/codestore"
	"subtab/internal/datagen"
	"subtab/internal/shard"
	"subtab/internal/table"
)

// sampleTestBinned builds a binned table with deliberately skewed strata:
// the Generic dataset's pattern column gives a handful of categorical bins,
// and we thin one pattern down to a rare stratum so coverage is actually
// exercised (a uniform sampler would routinely miss it).
func sampleTestBinned(t *testing.T, n int, seed int64) *binning.Binned {
	t.Helper()
	ds := datagen.Generic(n, 6, 5, seed)
	b, err := binning.Bin(ds.T, binning.Options{MaxBins: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func identity(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func allCols(b *binning.Binned) []int {
	cols := make([]int, b.NumCols())
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// assertSortedUnique checks the sampler's output-shape invariant.
func assertSortedUnique(t *testing.T, sample []int) {
	t.Helper()
	for i := 1; i < len(sample); i++ {
		if sample[i] <= sample[i-1] {
			t.Fatalf("sample not sorted/unique at %d: %d then %d", i, sample[i-1], sample[i])
		}
	}
}

func TestStratifiedReservoirSmallTableReturnsAllRows(t *testing.T) {
	b := sampleTestBinned(t, 200, 1)
	rows, cols := identity(200), allCols(b)
	for _, budget := range []int{200, 500, 10_000} {
		got := stratifiedReservoir(b, rows, cols, budget, 7)
		if len(got) != 200 {
			t.Fatalf("budget %d: want all 200 rows, got %d", budget, len(got))
		}
		assertSortedUnique(t, got)
		for i, r := range got {
			if r != i {
				t.Fatalf("budget %d: row %d missing from full return", budget, i)
			}
		}
	}
}

func TestStratifiedReservoirDeterministicPerSeed(t *testing.T) {
	b := sampleTestBinned(t, 3000, 2)
	rows, cols := identity(3000), allCols(b)
	distinct := 0
	for _, seed := range []int64{0, 1, 41, -9} {
		a := stratifiedReservoir(b, rows, cols, 300, seed)
		bb := stratifiedReservoir(b, rows, cols, 300, seed)
		if len(a) != len(bb) {
			t.Fatalf("seed %d: lengths differ: %d vs %d", seed, len(a), len(bb))
		}
		for i := range a {
			if a[i] != bb[i] {
				t.Fatalf("seed %d: sample differs at %d: %d vs %d", seed, i, a[i], bb[i])
			}
		}
		base := stratifiedReservoir(b, rows, cols, 300, 12345)
		for i := range a {
			if a[i] != base[i] {
				distinct++
				break
			}
		}
	}
	if distinct == 0 {
		t.Fatal("every seed produced the reference sample; the seed is not reaching the hash")
	}
}

func TestStratifiedReservoirSortedUniqueWithinBudget(t *testing.T) {
	b := sampleTestBinned(t, 5000, 3)
	cols := allCols(b)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		// Random candidate subsets model query results; random budgets model
		// knob settings.
		var rows []int
		for r := 0; r < 5000; r++ {
			if rng.Float64() < 0.6 {
				rows = append(rows, r)
			}
		}
		budget := 50 + rng.Intn(2000)
		sample := stratifiedReservoir(b, rows, cols, budget, int64(trial))
		if len(rows) > budget && len(sample) != budget {
			t.Fatalf("trial %d: want exactly budget %d rows, got %d", trial, budget, len(sample))
		}
		assertSortedUnique(t, sample)
		inRows := make(map[int]bool, len(rows))
		for _, r := range rows {
			inRows[r] = true
		}
		for _, r := range sample {
			if !inRows[r] {
				t.Fatalf("trial %d: sampled row %d is not a candidate", trial, r)
			}
		}
	}
}

func TestStratifiedReservoirCoversEveryNonEmptyBin(t *testing.T) {
	b := sampleTestBinned(t, 8000, 4)
	cols := allCols(b)
	for _, tc := range []struct {
		name string
		rows []int
	}{
		{"all-rows", identity(8000)},
		{"every-third-row", func() []int {
			var rows []int
			for r := 0; r < 8000; r += 3 {
				rows = append(rows, r)
			}
			return rows
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2, 77} {
				sample := stratifiedReservoir(b, tc.rows, cols, 400, seed)
				// Strata present among candidates vs strata present in sample.
				want := make(map[int32]bool)
				for _, c := range cols {
					for _, r := range tc.rows {
						want[b.Item(c, r)] = true
					}
				}
				got := make(map[int32]bool)
				for _, c := range cols {
					for _, r := range sample {
						got[b.Item(c, r)] = true
					}
				}
				if len(want) > 400 {
					t.Fatalf("test misconfigured: %d strata exceed the budget", len(want))
				}
				for item := range want {
					if !got[item] {
						t.Errorf("seed %d: stratum %s lost by sampling", seed, b.ItemLabel(item))
					}
				}
			}
		})
	}
}

// TestStratifiedReservoirRareStratumSurvives plants one near-singleton
// category and checks the guarantee that motivates stratification: a uniform
// 100-of-10000 sample would miss a 3-row category with probability ~97%,
// the stratified sampler must never miss it.
func TestStratifiedReservoirRareStratumSurvives(t *testing.T) {
	n := 10_000
	cats := make([]string, n)
	for i := range cats {
		cats[i] = "common"
	}
	cats[17], cats[4242], cats[9001] = "rare", "rare", "rare"
	ds := datagen.Generic(n, 4, 2, 5)
	tbl := ds.T
	if err := tbl.AddColumn(table.NewCategorical("flag", cats)); err != nil {
		t.Fatal(err)
	}
	b, err := binning.Bin(tbl, binning.Options{MaxBins: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cols := allCols(b)
	flagCol := tbl.ColumnIndex("flag")
	for seed := int64(0); seed < 30; seed++ {
		sample := stratifiedReservoir(b, identity(n), cols, 100, seed)
		found := false
		for _, r := range sample {
			if tbl.ColumnAt(flagCol).CellString(r) == "rare" {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("seed %d: rare stratum (3 of %d rows) missing from the sample", seed, n)
		}
	}
}

// refStratifiedReservoirBiased is the sampler as it was before the column
// scan went parallel and the fill phase became a threshold select: a serial
// per-cell scan into global slots, a picked map and a bounded max-heap. It
// is kept verbatim as the differential oracle the production sampler must
// reproduce slice for slice.
func refStratifiedReservoirBiased(b *binning.Binned, rows, cols []int, budget int, seed int64, covered func(item int) bool) []int {
	if budget <= 0 || len(rows) <= budget {
		out := make([]int, len(rows))
		copy(out, rows)
		sort.Ints(out)
		return out
	}

	// Shard-backed full-table scans scatter: one goroutine per shard, merged
	// associatively (package shard) — same sample, one shard-scan's worth of
	// wall clock. Query subsets fall through to the generic block cursor.
	if src, ok := b.Source().(*shard.Source); ok && src.Complete() &&
		len(rows) == src.NumRows() && identityRows(rows) {
		return shardedReservoir(b, src, cols, budget, seed, covered)
	}

	rowH := make([]uint64, len(rows))
	for i, r := range rows {
		rowH[i] = sampleHash(seed, r)
	}

	// Phase 1: per-stratum min-hash representative. The stratum space is the
	// global item-id space restricted to cols; NumItems is small (columns ×
	// bins), so flat slots beat a map.
	//
	// Codes are read through the binning's CodeSource so the scan runs
	// identically over inline codes and over an on-disk store: min-hash with
	// a value-based tie-break is order-independent, so chunked block scans
	// (and the store's block geometry) cannot change the sample — the
	// property that lets the out-of-core path reproduce the in-memory
	// sample bit for bit.
	bestRow := make([]int, b.NumItems())
	bestHash := make([]uint64, b.NumItems())
	for s := range bestRow {
		bestRow[s] = -1
	}
	update := func(s int32, r int, h uint64) {
		if bestRow[s] < 0 || h < bestHash[s] || (h == bestHash[s] && r < bestRow[s]) {
			bestRow[s], bestHash[s] = r, h
		}
	}
	src := b.Source()
	var scratch []uint16
	for _, c := range cols {
		base := b.ItemOf(c, 0)
		switch {
		case b.HasInlineCodes():
			// Resident codes: the historical single-pass loop, one uint16
			// read and a compare per cell (kept branch-free of the closure —
			// this is the dominant scan of every in-memory scaled select).
			codes := b.Codes[c]
			for i, r := range rows {
				s := base + int32(codes[r])
				h := rowH[i]
				if bestRow[s] < 0 || h < bestHash[s] || (h == bestHash[s] && r < bestRow[s]) {
					bestRow[s], bestHash[s] = r, h
				}
			}
		case len(rows) == src.NumRows() && identityRows(rows):
			// Store-backed full-table scan: stream whole blocks in order.
			br := src.BlockRows()
			for blk := 0; blk < src.NumBlocks(); blk++ {
				codes := src.ColumnBlock(c, blk, scratch)
				scratch = codes
				off := blk * br
				for i, code := range codes {
					update(base+int32(code), off+i, rowH[off+i])
				}
			}
		default:
			// Store-backed candidate subset (a query result): walk the rows
			// with a per-column block cursor — sequential block loads for the
			// (sorted) common case, still correct for any order.
			br := src.BlockRows()
			blk := -1
			var codes []uint16
			for i, r := range rows {
				if nb := r / br; nb != blk {
					blk = nb
					codes = src.ColumnBlock(c, blk, scratch)
					scratch = codes
				}
				update(base+int32(codes[r-blk*br]), r, rowH[i])
			}
		}
	}
	picked := make(map[int]bool, budget)
	sample := make([]int, 0, budget)
	for _, wantCovered := range [2]bool{false, true} {
		if len(sample) >= budget {
			break
		}
		for s := range bestRow {
			if len(sample) >= budget {
				break
			}
			if covered != nil && covered(s) != wantCovered {
				continue
			}
			r := bestRow[s]
			if r < 0 || picked[r] {
				continue
			}
			picked[r] = true
			sample = append(sample, r)
		}
		if covered == nil {
			break
		}
	}

	// Phase 2: uniform fill — the (budget - coverage) rows with the smallest
	// row-keyed hashes, via a bounded max-heap so million-row candidate sets
	// need no full sort. Ties break toward the lower row id.
	if rem := budget - len(sample); rem > 0 {
		heapH := make([]uint64, 0, rem)
		heapR := make([]int, 0, rem)
		greater := func(i, j int) bool {
			if heapH[i] != heapH[j] {
				return heapH[i] > heapH[j]
			}
			return heapR[i] > heapR[j]
		}
		siftDown := func(i int) {
			for {
				l, rch := 2*i+1, 2*i+2
				big := i
				if l < len(heapH) && greater(l, big) {
					big = l
				}
				if rch < len(heapH) && greater(rch, big) {
					big = rch
				}
				if big == i {
					return
				}
				heapH[i], heapH[big] = heapH[big], heapH[i]
				heapR[i], heapR[big] = heapR[big], heapR[i]
				i = big
			}
		}
		for i, r := range rows {
			if picked[r] {
				continue
			}
			h := rowH[i]
			if len(heapH) < rem {
				heapH = append(heapH, h)
				heapR = append(heapR, r)
				for i := len(heapH) - 1; i > 0; {
					p := (i - 1) / 2
					if !greater(i, p) {
						break
					}
					heapH[i], heapH[p] = heapH[p], heapH[i]
					heapR[i], heapR[p] = heapR[p], heapR[i]
					i = p
				}
				continue
			}
			if h > heapH[0] || (h == heapH[0] && r > heapR[0]) {
				continue
			}
			heapH[0], heapR[0] = h, r
			siftDown(0)
		}
		sample = append(sample, heapR...)
	}
	sort.Ints(sample)
	return sample
}

// storeTwin rebuilds b's table binning (same data, same seed) and switches
// the twin onto an on-disk code store with tiny blocks, so every scan
// crosses many chunk boundaries.
func storeTwin(t *testing.T, n int, seed int64) *binning.Binned {
	t.Helper()
	b := rebinnedTwin(t, n, seed)
	path := filepath.Join(t.TempDir(), "twin.codes")
	w, err := codestore.Create(path, b.NumCols(), 37)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ExportCodes(w, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := codestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := b.AttachStore(s); err != nil {
		t.Fatal(err)
	}
	if err := b.DropInlineCodes(); err != nil {
		t.Fatal(err)
	}
	return b
}

// copyingSource decodes into scratch like an on-disk store does. The
// sharded source assembles shard-spanning blocks in the caller's scratch,
// which a zero-copy shard would hand back aliased to its own codes.
type copyingSource struct{ *shardMemSource }

func (s copyingSource) ColumnBlock(c, blk int, scratch []uint16) []uint16 {
	return append(scratch[:0], s.shardMemSource.ColumnBlock(c, blk, nil)...)
}

// shardTwin is storeTwin's sharded form: the twin reads its codes from
// three in-memory shards with unaligned boundaries.
func shardTwin(t *testing.T, n int, seed int64) *binning.Binned {
	t.Helper()
	ref := rebinnedTwin(t, n, seed)
	rng := rand.New(rand.NewSource(seed))
	cuts := []int{0, n / 3, n/3 + 1 + n/5, n}
	srcs, counts := shardSplit(ref, cuts, rng)
	for i, cs := range srcs {
		srcs[i] = copyingSource{cs.(*shardMemSource)}
	}
	src, err := shard.NewSource(srcs, counts, ref.NumCols())
	if err != nil {
		t.Fatal(err)
	}
	b := rebinnedTwin(t, n, seed)
	if err := b.AttachStore(src); err != nil {
		t.Fatal(err)
	}
	if err := b.DropInlineCodes(); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStratifiedReservoirMatchesReference is the differential check of the
// sampler against refStratifiedReservoirBiased: the same slice across
// seeds, full tables and filtered subsets (sorted and shuffled), inline,
// code-store and sharded sources, nil/empty/partial/full coverage, and
// budgets on both sides of the stratum count. Run it at -cpu 1,2 so the
// serial and the parallel column scans are both compared.
func TestStratifiedReservoirMatchesReference(t *testing.T) {
	const n, seed = 1500, 6
	sources := map[string]*binning.Binned{
		"inline": sampleTestBinned(t, n, seed),
		"store":  storeTwin(t, n, seed),
		"shard":  shardTwin(t, n, seed),
	}
	cols := allCols(sources["inline"])
	strata := strataCount(sources["inline"], cols)
	rng := rand.New(rand.NewSource(31))
	var filtered, shuffled []int
	for r := 0; r < n; r++ {
		if rng.Float64() < 0.4 {
			filtered = append(filtered, r)
		}
	}
	shuffled = slices.Clone(filtered)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	rowSets := map[string][]int{
		"full":     identity(n),
		"filtered": filtered,
		"shuffled": shuffled,
		"range":    identity(n)[200:1300],
	}
	numItems := sources["inline"].NumItems()
	half := bitset.New(numItems)
	for i := 0; i < numItems; i += 2 {
		half.Add(i)
	}
	all := bitset.New(numItems)
	for i := 0; i < numItems; i++ {
		all.Add(i)
	}
	coverings := map[string]func(int) bool{
		"nil":     nil,
		"empty":   bitset.New(numItems).Contains,
		"partial": half.Contains,
		"full":    all.Contains,
	}
	budgets := []int{1, strata / 3, strata - 1, strata, strata + 7, 300, 900}
	for sname, b := range sources {
		for rname, rows := range rowSets {
			for cname, covered := range coverings {
				for _, budget := range budgets {
					for _, sd := range []int64{0, 5, -13, 1 << 40} {
						want := refStratifiedReservoirBiased(b, rows, cols, budget, sd, covered)
						got := stratifiedReservoirBiased(b, rows, cols, budget, sd, covered)
						if !slices.Equal(got, want) {
							t.Fatalf("%s/%s/covered=%s budget %d seed %d: sample differs from the reference\n got %v\nwant %v",
								sname, rname, cname, budget, sd, got, want)
						}
					}
				}
			}
		}
	}
	// A column subset with a repeated column must scan it once.
	sub := []int{cols[2], cols[0], cols[2]}
	for _, budget := range []int{3, 40} {
		want := refStratifiedReservoirBiased(sources["inline"], filtered, sub, budget, 9, half.Contains)
		got := stratifiedReservoirBiased(sources["inline"], filtered, sub, budget, 9, half.Contains)
		if !slices.Equal(got, want) {
			t.Fatalf("repeated column, budget %d: sample differs from the reference", budget)
		}
	}
}

// TestSessionSelectSmallBudgetStaysBiased pins the route between the two
// samplers: with a sample budget below the stratum count a covered session
// select still takes the biased sampler (which bypasses the sample cache
// and whose sample differs from the unbiased one), and at a budget no
// smaller than the stratum count it takes the cached unbiased sampler with
// an identical view.
func TestSessionSelectSmallBudgetStaysBiased(t *testing.T) {
	m := filterTestModel(t)
	cols := allCols(m.B)
	strata := strataCount(m.B, cols)
	rows := identity(m.T.NumRows())
	seed := m.Opt.ClusterSeed ^ scaleSampleSeed
	base, err := m.SelectExplore(ExploreSpec{K: 8, L: 6, Scale: &ScaleOptions{Threshold: 1, SampleBudget: strata, BatchSize: 128, MaxIter: 50}})
	if err != nil {
		t.Fatal(err)
	}
	// The session has seen every stratum of the first half of the columns:
	// the biased phase 1 serves the other half first.
	covered := bitset.FromIndices(m.B.NumItems(), m.ViewItems(base))
	for _, c := range cols[:len(cols)/2] {
		for bin := 0; bin < m.B.Cols[c].NumBins(); bin++ {
			covered.Add(int(m.B.ItemOf(c, bin)))
		}
	}
	cacheLen := func() int {
		m.sampleMu.Lock()
		defer m.sampleMu.Unlock()
		return len(m.sampleCache)
	}

	// Phase 1 keeps one row per stratum, but one row is often the minimum
	// of several strata, so the budget must undercut the distinct rows too.
	small := strata / 12
	biased := stratifiedReservoirBiased(m.B, rows, cols, small, seed, covered.Contains)
	if slices.Equal(biased, stratifiedReservoir(m.B, rows, cols, small, seed)) {
		t.Fatalf("budget %d below %d strata: the biased sample equals the unbiased one", small, strata)
	}
	before := cacheLen()
	sc := &ScaleOptions{Threshold: 1, SampleBudget: small, BatchSize: 128, MaxIter: 50}
	st, err := m.SelectExplore(ExploreSpec{K: 8, L: 6, Scale: sc, Covered: covered})
	if err != nil {
		t.Fatal(err)
	}
	if cacheLen() != before {
		t.Fatal("a covered select under the stratum count went through the sample cache")
	}
	for _, r := range st.SourceRows {
		if i := sort.SearchInts(biased, r); i == len(biased) || biased[i] != r {
			t.Fatalf("selected row %d is not in the biased sample", r)
		}
	}

	sc = &ScaleOptions{Threshold: 1, SampleBudget: strata + 5, BatchSize: 128, MaxIter: 50}
	plain, err := m.SelectExplore(ExploreSpec{K: 8, L: 6, Scale: sc})
	if err != nil {
		t.Fatal(err)
	}
	before = cacheLen()
	routed, err := m.SelectExplore(ExploreSpec{K: 8, L: 6, Scale: sc, Covered: covered})
	if err != nil {
		t.Fatal(err)
	}
	if fpr(routed) != fpr(plain) {
		t.Fatalf("covered select at budget >= strata diverged from the unbiased one:\n got %s\nwant %s", fpr(routed), fpr(plain))
	}
	if cacheLen() != before || before == 0 {
		t.Fatalf("covered select at budget >= strata missed the sample cache (%d entries before, %d after)", before, cacheLen())
	}
}

// TestUniformFillMatchesSort checks the fill phase against a full sort of
// the unpicked candidates by (hash, row), on hash layouts a seeded hash
// never produces: every hash above the threshold (forcing the second,
// collect-everything pass), heavy ties at the cut, and unsorted rows.
func TestUniformFillMatchesSort(t *testing.T) {
	const n = 400
	rng := rand.New(rand.NewSource(3))
	layouts := map[string]func(i int) uint64{
		"high":  func(i int) uint64 { return math.MaxUint64 - uint64(rng.Intn(50)) },
		"ties":  func(i int) uint64 { return uint64(rng.Intn(4)) << 60 },
		"equal": func(i int) uint64 { return 7 },
	}
	for name, hash := range layouts {
		for _, shuffle := range []bool{false, true} {
			rows := identity(n)
			if shuffle {
				rng.Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			}
			rowH := make([]uint64, n)
			picked := make([]bool, n)
			free := n
			for i := range rowH {
				rowH[i] = hash(i)
				if rng.Intn(5) == 0 {
					picked[i] = true
					free--
				}
			}
			for _, rem := range []int{1, 17, free / 2, free} {
				var order []int
				for i := range rows {
					if !picked[i] {
						order = append(order, i)
					}
				}
				sort.Slice(order, func(x, y int) bool {
					a, b := order[x], order[y]
					if rowH[a] != rowH[b] {
						return rowH[a] < rowH[b]
					}
					return rows[a] < rows[b]
				})
				var want []int
				for _, i := range order[:rem] {
					want = append(want, rows[i])
				}
				got := uniformFill(rows, rowH, picked, free, rem)
				slices.Sort(want)
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s shuffle=%v rem %d: fill differs from the sorted reference\n got %v\nwant %v", name, shuffle, rem, got, want)
				}
			}
		}
	}
}
