// Differential tests: the shard kernels (ScanRows and its wrappers,
// CandidateRows, FinishSampleBiased) against the bounded-heap, full-sort
// and map-keyed forms they replaced, kept here as test-only references.
package shard

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/datagen"
)

// refScanFiltered is the heap-based scan: a mask test per cell, a bounded
// max-heap of the budget smallest (hash, row) pairs, sorted by (hash, row).
func refScanFiltered(b *binning.Binned, cs binning.CodeSource, start int, cols []int, budget int, seed int64, keep []bool) Summary {
	strata := EmptyStrata(b.NumItems())
	n := 0
	if cs != nil {
		n = cs.NumRows()
	}
	if n == 0 {
		return Summary{Strata: strata}
	}
	rowH := make([]uint64, n)
	for i := range rowH {
		rowH[i] = RowHash(seed, int64(start+i))
	}
	matched := n
	if keep != nil {
		matched = 0
		for _, k := range keep {
			if k {
				matched++
			}
		}
	}
	if matched == 0 {
		return Summary{Strata: strata}
	}
	var scratch []uint16
	br := cs.BlockRows()
	for _, c := range cols {
		base := b.ItemOf(c, 0)
		for blk := 0; blk < cs.NumBlocks(); blk++ {
			codes := cs.ColumnBlock(c, blk, scratch)
			scratch = codes
			off := blk * br
			for i, code := range codes {
				if keep != nil && !keep[off+i] {
					continue
				}
				s := base + int32(code)
				r := int64(start + off + i)
				h := rowH[off+i]
				if strata[s].Row < 0 || h < strata[s].Hash || (h == strata[s].Hash && r < strata[s].Row) {
					strata[s] = StratumMin{Row: r, Hash: h}
				}
			}
		}
	}
	rem := min(budget, matched)
	heap := make([]HashRow, 0, rem)
	greater := func(a, b HashRow) bool {
		if a.Hash != b.Hash {
			return a.Hash > b.Hash
		}
		return a.Row > b.Row
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(heap) && greater(heap[l], heap[big]) {
				big = l
			}
			if r < len(heap) && greater(heap[r], heap[big]) {
				big = r
			}
			if big == i {
				return
			}
			heap[i], heap[big] = heap[big], heap[i]
			i = big
		}
	}
	for i := 0; i < n; i++ {
		if keep != nil && !keep[i] {
			continue
		}
		hr := HashRow{Hash: rowH[i], Row: int64(start + i)}
		if len(heap) < rem {
			heap = append(heap, hr)
			for j := len(heap) - 1; j > 0; {
				p := (j - 1) / 2
				if !greater(heap[j], heap[p]) {
					break
				}
				heap[j], heap[p] = heap[p], heap[j]
				j = p
			}
			continue
		}
		if greater(hr, heap[0]) {
			continue
		}
		heap[0] = hr
		siftDown(0)
	}
	sort.Slice(heap, func(i, j int) bool { return greater(heap[j], heap[i]) })
	return Summary{Strata: strata, Cand: heap}
}

// refCandidateRows is the map-and-sort form of CandidateRows; it accepts
// candidates in any order.
func refCandidateRows(s Summary) []int64 {
	seen := make(map[int64]bool, len(s.Cand)+len(s.Strata))
	out := make([]int64, 0, len(s.Cand)+len(s.Strata))
	for _, sm := range s.Strata {
		if sm.Row >= 0 && !seen[sm.Row] {
			seen[sm.Row] = true
			out = append(out, sm.Row)
		}
	}
	for _, hr := range s.Cand {
		if !seen[hr.Row] {
			seen[hr.Row] = true
			out = append(out, hr.Row)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refFinishSampleBiased is the map-and-sort finish: a picked map sized to
// the budget and a full sort of the unpicked candidates.
func refFinishSampleBiased(strata []StratumMin, cands []HashRow, budget int, covered func(item int) bool) []int {
	picked := make(map[int64]bool, budget)
	sample := make([]int, 0, budget)
	for _, wantCovered := range [2]bool{false, true} {
		if len(sample) >= budget {
			break
		}
		for s := range strata {
			if len(sample) >= budget {
				break
			}
			if covered != nil && covered(s) != wantCovered {
				continue
			}
			r := strata[s].Row
			if r < 0 || picked[r] {
				continue
			}
			picked[r] = true
			sample = append(sample, int(r))
		}
		if covered == nil {
			break
		}
	}
	if rem := budget - len(sample); rem > 0 {
		rest := make([]HashRow, 0, len(cands))
		for _, hr := range cands {
			if !picked[hr.Row] {
				rest = append(rest, hr)
			}
		}
		sort.Slice(rest, func(i, j int) bool {
			if rest[i].Hash != rest[j].Hash {
				return rest[i].Hash < rest[j].Hash
			}
			return rest[i].Row < rest[j].Row
		})
		if len(rest) > rem {
			rest = rest[:rem]
		}
		for _, hr := range rest {
			sample = append(sample, int(hr.Row))
		}
	}
	sort.Ints(sample)
	return sample
}

// sameCands reports whether two candidate lists hold the same pairs.
func sameCands(a, b []HashRow) bool {
	key := func(x, y HashRow) int {
		if x.Row != y.Row {
			return int(x.Row - y.Row)
		}
		return 0
	}
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, key)
	slices.SortFunc(b, key)
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestShardKernelsMatchReference splits a binned table along random cuts
// (empty shards, cuts off the block grid, random block sizes), filters
// each shard by a random mask (none, empty, full or random) and scans it
// with the new kernel and the reference at budgets below, at and above the
// match count. Strata must be equal, candidates equal as a set, and the
// finished samples — unbiased and covered — equal exactly. The fused codes
// must be the cells Source.Code reads.
func TestShardKernelsMatchReference(t *testing.T) {
	ds := datagen.Flights(1500, 7)
	b, err := binning.Bin(ds.T, binning.Options{MaxBins: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n := b.NumRows()
	rng := rand.New(rand.NewSource(11))
	allCols := make([]int, b.NumCols())
	for c := range allCols {
		allCols[c] = c
	}
	for trial := 0; trial < 40; trial++ {
		shards := 1 + rng.Intn(5)
		cuts := make([]int, shards+1)
		cuts[shards] = n
		for i := 1; i < shards; i++ {
			if rng.Intn(4) == 0 {
				cuts[i] = cuts[i-1] // empty shard
			} else {
				cuts[i] = cuts[i-1] + rng.Intn(n-cuts[i-1]+1)
			}
		}
		cols := allCols
		if trial%3 == 1 {
			cols = []int{trial % b.NumCols(), (trial + 3) % b.NumCols(), trial % b.NumCols()}
		}
		seed := int64(trial)
		maskKind := trial % 4 // 0 none, 1 random, 2 empty, 3 full
		var sums, refSums []Summary
		matched := 0
		for i := 0; i < shards; i++ {
			lo, hi := cuts[i], cuts[i+1]
			sub := make([][]uint16, b.NumCols())
			for c := range sub {
				sub[c] = b.Codes[c][lo:hi]
			}
			cs := &memSource{codes: sub, blockRows: 1 + rng.Intn(97)}
			var keep []bool
			if maskKind != 0 {
				keep = make([]bool, hi-lo)
				for r := range keep {
					keep[r] = maskKind == 3 || maskKind == 1 && rng.Intn(4) == 0
				}
			}
			m := hi - lo
			if keep != nil {
				m = 0
				for _, k := range keep {
					if k {
						m++
					}
				}
			}
			matched += m
			for _, budget := range []int{1, max(m/3, 1), m, m + 5} {
				got := ScanFiltered(b, cs, lo, cols, budget, seed, keep)
				want := refScanFiltered(b, cs, lo, cols, budget, seed, keep)
				if !reflect.DeepEqual(got.Strata, want.Strata) {
					t.Fatalf("trial %d shard %d budget %d: strata differ", trial, i, budget)
				}
				if !sameCands(got.Cand, want.Cand) {
					t.Fatalf("trial %d shard %d budget %d: candidate sets differ\n got %v\nwant %v", trial, i, budget, got.Cand, want.Cand)
				}
				if !slices.IsSortedFunc(got.Cand, func(x, y HashRow) int { return int(x.Row - y.Row) }) {
					t.Fatalf("trial %d shard %d: candidates not in row order", trial, i)
				}
				if !slices.Equal(got.CandidateRows(), refCandidateRows(want)) {
					t.Fatalf("trial %d shard %d budget %d: CandidateRows differ", trial, i, budget)
				}
				var rows []int
				if keep != nil {
					rows = []int{}
					for r, k := range keep {
						if k {
							rows = append(rows, lo+r)
						}
					}
				}
				resp := ScanRows(b, cs, lo, cols, budget, seed, rows, true)
				if resp.Matched != m || !reflect.DeepEqual(resp.Summary, got) {
					t.Fatalf("trial %d shard %d budget %d: fused scan summary differs", trial, i, budget)
				}
				if !slices.Equal(resp.Rows, got.CandidateRows()) || len(resp.Codes) != b.NumCols() {
					t.Fatalf("trial %d shard %d budget %d: fused scan rows differ", trial, i, budget)
				}
				for c := range resp.Codes {
					for k, r := range resp.Rows {
						if resp.Codes[c][k] != cs.Code(c, int(r)-lo) {
							t.Fatalf("trial %d shard %d: fused code (%d, row %d) = %d, Source.Code says %d", trial, i, c, r, resp.Codes[c][k], cs.Code(c, int(r)-lo))
						}
					}
				}
			}
			sums = append(sums, ScanFiltered(b, cs, lo, cols, 200, seed, keep))
			refSums = append(refSums, refScanFiltered(b, cs, lo, cols, 200, seed, keep))
		}
		covered := func(item int) bool { return (item*7+trial)%3 == 0 }
		for _, budget := range []int{1, 20, 200, max(matched, 1), matched + 10} {
			if budget > 200 {
				// Shard summaries were cut at 200; finish no further.
				continue
			}
			strata, cands := MergeSummaries(sums, b.NumItems())
			rs, rc := MergeSummaries(refSums, b.NumItems())
			for _, cov := range []func(int) bool{nil, covered} {
				got := FinishSampleBiased(strata, cands, budget, cov)
				want := refFinishSampleBiased(rs, rc, budget, cov)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d budget %d covered=%v: sample differs\n got %v\nwant %v", trial, budget, cov != nil, got, want)
				}
			}
		}
	}
}

// TestFinishSampleTiedHashes drives the finish and CandidateRows with
// hand-built summaries over a tiny hash domain, so ties at the phase-2 cut
// and rows shared between strata and candidates are the rule, and with
// candidates given out of row order.
func TestFinishSampleTiedHashes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		strata := EmptyStrata(1 + rng.Intn(12))
		for s := range strata {
			if rng.Intn(4) != 0 {
				strata[s] = StratumMin{Row: int64(rng.Intn(60)), Hash: uint64(rng.Intn(3))}
			}
		}
		var cands []HashRow
		for _, r := range rng.Perm(60)[:rng.Intn(60)] {
			cands = append(cands, HashRow{Hash: uint64(rng.Intn(3)), Row: int64(r)})
		}
		if trial%2 == 0 {
			slices.SortFunc(cands, func(x, y HashRow) int { return int(x.Row - y.Row) })
			if got, want := (Summary{Strata: strata, Cand: cands}).CandidateRows(), refCandidateRows(Summary{Strata: strata, Cand: cands}); !slices.Equal(got, want) {
				t.Fatalf("trial %d: CandidateRows = %v, want %v", trial, got, want)
			}
		}
		covered := func(item int) bool { return item%2 == trial%2 }
		for _, budget := range []int{1, 3, 10, 40, 100} {
			for _, cov := range []func(int) bool{nil, covered} {
				got := FinishSampleBiased(strata, cands, budget, cov)
				want := refFinishSampleBiased(strata, cands, budget, cov)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d budget %d covered=%v: got %v, want %v", trial, budget, cov != nil, got, want)
				}
			}
		}
	}
}

// TestScanRowsCodesMatchSource runs the scan on on-disk shards, whose
// mapped blocks the filtered pass decodes only at the rows it reads: a
// store block size that does not divide the cuts, a filtered and an
// unfiltered scan per shard, the summary checked against the reference
// and every returned code against the whole-table Source.Code of its row.
func TestScanRowsCodesMatchSource(t *testing.T) {
	ds := datagen.Flights(900, 3)
	b, err := binning.Bin(ds.T, binning.Options{MaxBins: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cuts := []int{0, 0, 301, 302, 900}
	paths := make([]string, len(cuts)-1)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("fl.codes.%03d", i))
	}
	sink, err := NewSplitSink(paths, cuts, b.NumCols(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ExportCodes(sink, 100); err != nil {
		t.Fatal(err)
	}
	sm, err := sink.Close()
	if err != nil {
		t.Fatal(err)
	}
	src, err := Open(dir, sm, b.NumCols(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rng := rand.New(rand.NewSource(4))
	cols := []int{1, 2}
	for i := 0; i < src.NumShards(); i++ {
		lo, hi := src.ShardStart(i), src.ShardStart(i)+src.ShardRows(i)
		var some []int
		for r := lo; r < hi; r++ {
			if rng.Intn(3) == 0 {
				some = append(some, r)
			}
		}
		var keep []bool
		for r := lo; r < hi; r++ {
			keep = append(keep, false)
		}
		for _, r := range some {
			keep[r-lo] = true
		}
		for _, rows := range [][]int{nil, some} {
			resp := ScanRows(b, src.ShardSource(i), lo, cols, 40, 9, rows, true)
			mask := keep
			if rows == nil {
				mask = nil
			}
			want := refScanFiltered(b, src.ShardSource(i), lo, cols, 40, 9, mask)
			if !reflect.DeepEqual(resp.Summary.Strata, want.Strata) || !sameCands(resp.Summary.Cand, want.Cand) {
				t.Fatalf("shard %d filtered=%v: summary differs from the reference", i, rows != nil)
			}
			if len(resp.Codes) != b.NumCols() {
				t.Fatalf("shard %d: %d code columns, want %d", i, len(resp.Codes), b.NumCols())
			}
			for c := range resp.Codes {
				for k, r := range resp.Rows {
					if got, want := resp.Codes[c][k], src.Code(c, int(r)); got != want {
						t.Fatalf("shard %d column %d row %d: code %d, Source.Code %d", i, c, r, got, want)
					}
				}
			}
		}
	}
}
