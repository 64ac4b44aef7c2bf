// Package core implements SubTab, the paper's practical sub-table selection
// algorithm (Algorithm 2). It has the two phases of Figure 1:
//
//   - Preprocess: normalize and bin the table, build the tabular-sentence
//     corpus, and train a Word2Vec model over the binned cell items. Executed
//     once, when the table is loaded.
//   - Select: derive a vector per row (the average of its cell vectors) and
//     per column (the average of its cell vectors), k-means each, and take
//     the points nearest the centroids as the sub-table's rows and columns.
//     Executed per display — on the full table or on any query result, reusing
//     the pre-computed cell vectors, which is what makes query-time selection
//     interactive.
//
// Target columns (U*) are forced into the output and excluded from the
// column clustering, exactly as in Algorithm 2 lines 13-17.
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"subtab/internal/binning"
	"subtab/internal/bitset"
	"subtab/internal/cluster"
	"subtab/internal/corpus"
	"subtab/internal/f32"
	"subtab/internal/metrics"
	"subtab/internal/query"
	"subtab/internal/rules"
	"subtab/internal/table"
	"subtab/internal/word2vec"
)

// ColumnStrategy selects how the sub-table's columns are chosen.
type ColumnStrategy int

const (
	// PatternGroups (default) groups columns by their embedding-derived
	// association affinity — skip-gram input·output products approximate
	// PMI, so bins that co-occur score high — and spends the column budget
	// on whole groups, largest first. Rules span *associated* columns, so
	// co-selecting an associated group is what makes multi-column rules
	// coverable. This is an implementation refinement over Algorithm 2's
	// centroid step, which is under-determined on wide tables (column-mean
	// vectors wash out bin-level structure); see DESIGN.md.
	PatternGroups ColumnStrategy = iota
	// Centroids is the literal Algorithm 2 column step: k-means the
	// column-mean vectors into l−|U*| clusters and take the centroids.
	Centroids
)

// Options configures the SubTab pipeline.
type Options struct {
	// Bins configures binning (paper default: 5 bins, KDE valleys).
	Bins binning.Options
	// Corpus configures sentence construction (paper: 100K-sentence cap).
	Corpus corpus.Options
	// Embedding configures Word2Vec training.
	Embedding word2vec.Options
	// Columns selects the column-selection strategy.
	Columns ColumnStrategy
	// ClusterSeed drives the k-means initializations during selection.
	ClusterSeed int64
	// Scale configures the large-table selection mode (mini-batch k-means
	// over a stratified candidate sample above a row-count threshold). The
	// zero value keeps every selection on the exact path.
	Scale ScaleOptions
}

// Default returns the default settings: the paper's binning and corpus cap,
// tuple-sentences only (see DESIGN.md — column-sentences dilute the
// cross-column association signal), and pattern-group column selection.
func Default() Options {
	return Options{
		Bins:   binning.Options{MaxBins: 5, Strategy: binning.KDEValleys},
		Corpus: corpus.Options{MaxSentences: 100_000, TupleSentences: true},
	}
}

// Model is the output of pre-processing: the binned table plus one embedding
// vector per distinct (column, bin) item.
type Model struct {
	T   *table.Table
	B   *binning.Binned
	Emb *word2vec.Model
	Opt Options

	// items is a zero-copy view of the embedding's input-vector table;
	// itemRow[item] is the matrix row holding the item's vector, or -1 when
	// the item never appeared in the training corpus.
	items   f32.Matrix
	itemRow []int32

	// colAffinity is the flat mc×mc global association-affinity matrix
	// (entry [u*mc+w]), computed once at pre-processing time from the
	// embedding (symmetrized, frequency-weighted best bin match) and reused
	// by every selection.
	colAffinity []float64

	// binCounts[c][bin] is the cumulative number of rows of column c in each
	// bin — the integer form of the frequencies the affinity computation
	// weights by. Preprocess fills it; models restored from older persisted
	// formats rebuild it lazily (one scan of the bin codes). Append updates
	// it incrementally from the delta alone.
	binCountsOnce sync.Once
	binCounts     [][]int64

	// appendedSinceRebin counts rows ingested through the incremental
	// append path since the bin boundaries were last computed (Preprocess
	// or a rebin). Per-append drift checks cannot see slow cumulative
	// drift — each chunk is judged against a distribution that already
	// absorbed its predecessors — so Append also re-bins once this exceeds
	// the growth threshold, bounding staleness to one table-doubling at
	// default settings (classic amortization: the occasional full re-bin
	// stays O(1) per appended row).
	appendedSinceRebin int

	// sampleCache memoizes the scaled path's full-table candidate samples
	// by budget: the stratified reservoir is a pure function of (binning,
	// budget, seed), and warm serving issues many scaled selections over
	// the same model, so the one scan that dominates a scaled select's cost
	// runs once per (model, budget) instead of once per display.
	// Query-restricted selections always sample per call. sampleGen counts
	// cache mutations (under sampleMu) and orders the byte settles with the
	// governor (see governor.go).
	sampleMu    sync.Mutex
	sampleCache map[int][]int
	sampleGen   uint64

	// shardSampler, when set, produces scaled-path candidate samples for a
	// model whose shards are partly remote (the coordinator role; see
	// SetShardSampler). Nil on every locally complete model.
	shardSampler ShardSampler

	// cellSrc, when set, supplies rendered cells for view assembly instead of
	// the in-memory table — a paged column store (internal/colstore) or a
	// coordinator's over-the-wire shard gatherer. See AttachColumnStore.
	cellSrc table.CellSource

	// fullVecs caches the tuple-vectors of every row over all columns
	// (built lazily on the first selection that needs them). Full-table
	// displays — the warm serving steady state — reuse the matrix directly,
	// and row-subset selections over the full column set copy rows out of
	// it, because a tuple-vector depends only on the column set.
	//
	// All three fields are guarded by fullVecsMu; fullVecsReady is
	// additionally an atomic so readers can skip the mutex when the cache is
	// cold. The matrix's backing array is immutable once published, so
	// readers take a header copy under the mutex (cachedFullVecs) and may
	// keep using it after ReleaseVectorCache drops the model's reference —
	// eviction racing an in-flight selection is safe by construction (the
	// resettable sync.Once this replaces could tear mid-Do). fullVecsGen
	// counts publications/releases and orders the governor byte settles.
	fullVecsMu    sync.Mutex
	fullVecs      f32.Matrix
	fullVecsGen   uint64
	fullVecsReady atomic.Bool

	// gov, when set (SetGovernor), holds the memgov accounts the two caches
	// above settle their resident bytes with. See governor.go.
	gov atomic.Pointer[modelGov]
}

// indexItems builds the item-id → embedding-row index over the zero-copy
// vector matrix.
func (m *Model) indexItems() {
	m.items = m.Emb.VectorMatrix()
	m.itemRow = make([]int32, m.B.NumItems())
	for item := range m.itemRow {
		m.itemRow[item] = m.Emb.Index(int32(item))
	}
}

// Preprocess runs the pre-processing phase of Algorithm 2 on table t.
func Preprocess(t *table.Table, opt Options) (*Model, error) {
	b, err := binning.Bin(t, opt.Bins)
	if err != nil {
		return nil, fmt.Errorf("core: binning: %w", err)
	}
	sents := corpus.Build(b, opt.Corpus)
	emb := word2vec.Train(sents, opt.Embedding)
	m := &Model{T: t, B: b, Emb: emb, Opt: opt}
	m.indexItems()
	m.computeColumnAffinities()
	return m, nil
}

// Restore rebuilds a pre-processed model from its serialized parts (package
// modelio) without re-running Preprocess. colAffinity must be the flat
// matrix previously obtained from AffinityData; passing nil recomputes it
// (the only expensive step of restoration).
func Restore(t *table.Table, b *binning.Binned, emb *word2vec.Model, opt Options, colAffinity []float64) (*Model, error) {
	if b.T != t {
		return nil, fmt.Errorf("core: restore: binned representation does not wrap the given table")
	}
	m := &Model{T: t, B: b, Emb: emb, Opt: opt}
	m.indexItems()
	if colAffinity == nil {
		m.computeColumnAffinities()
		return m, nil
	}
	mc := t.NumCols()
	if len(colAffinity) != mc*mc {
		return nil, fmt.Errorf("core: restore: affinity matrix has %d entries, table with %d columns needs %d", len(colAffinity), mc, mc*mc)
	}
	m.colAffinity = colAffinity
	return m, nil
}

// AffinityData returns the precomputed column-affinity matrix as one flat
// row-major slice (entry [u*NumCols+w]). It aliases model memory and must
// not be mutated; it exists so the model can be serialized (package modelio)
// and restored without re-running the affinity computation.
func (m *Model) AffinityData() []float64 { return m.colAffinity }

// AffinityMatrix returns the column-affinity matrix as per-row views into
// the flat data, indexed by original column position. The rows alias model
// memory and must not be mutated.
func (m *Model) AffinityMatrix() [][]float64 {
	mc := m.T.NumCols()
	out := make([][]float64, mc)
	for i := range out {
		out[i] = m.colAffinity[i*mc : (i+1)*mc : (i+1)*mc]
	}
	return out
}

// computeColumnAffinities fills the global pairwise column-affinity matrix
// from the cumulative bin counts. Every (i,j) pair is independent and writes
// disjoint cells, so the upper triangle fans out across workers (dynamically
// scheduled — row i of the triangle costs O(mc−i)) with bit-identical
// results at any worker count.
func (m *Model) computeColumnAffinities() {
	m.colAffinity = m.affinityFromCounts(m.cachedBinCounts(), m.T.NumRows())
}

// cachedBinCounts returns the per-column per-bin row counts, computing them
// with one scan of the bin codes the first time they are needed (models
// restored from format versions that predate serialized counts).
func (m *Model) cachedBinCounts() [][]int64 {
	m.binCountsOnce.Do(func() {
		if m.binCounts != nil {
			return
		}
		mc := m.T.NumCols()
		counts := make([][]int64, mc)
		src := m.B.Source()
		f32.ParallelIndex(mc, f32.Workers(mc), func(c int) {
			f := make([]int64, m.B.Cols[c].NumBins())
			var scratch []uint16
			for blk := 0; blk < src.NumBlocks(); blk++ {
				codes := src.ColumnBlock(c, blk, scratch)
				scratch = codes
				for _, code := range codes {
					f[code]++
				}
			}
			counts[c] = f
		})
		m.binCounts = counts
	})
	return m.binCounts
}

// seedBinCounts installs externally known counts (modelio, Append) so the
// lazy scan never runs. It is a no-op once counts exist.
func (m *Model) seedBinCounts(counts [][]int64) {
	m.binCountsOnce.Do(func() { m.binCounts = counts })
}

// BinCountsData returns the cumulative per-column per-bin row counts (the
// integer form of the affinity frequencies). It aliases model memory and
// must not be mutated; it exists so the counts can be serialized (package
// modelio) and appends on a loaded model stay incremental.
func (m *Model) BinCountsData() [][]int64 { return m.cachedBinCounts() }

// AppendedSinceRebin returns the number of rows ingested incrementally
// since the bin boundaries were last computed (serialized by modelio so
// the growth-triggered re-bin survives a save/load cycle).
func (m *Model) AppendedSinceRebin() int { return m.appendedSinceRebin }

// SetAppendedSinceRebin installs the deserialized lineage counter on a
// freshly restored model (package modelio).
func (m *Model) SetAppendedSinceRebin(n int) error {
	if n < 0 || n > m.T.NumRows() {
		return fmt.Errorf("core: %d appended rows for a %d-row table", n, m.T.NumRows())
	}
	m.appendedSinceRebin = n
	return nil
}

// SeedBinCounts installs deserialized bin counts on a freshly restored
// model (package modelio). Counts must match the binning's shape; models
// with counts already computed ignore the call.
func (m *Model) SeedBinCounts(counts [][]int64) error {
	if len(counts) != len(m.B.Cols) {
		return fmt.Errorf("core: %d count columns for %d binned columns", len(counts), len(m.B.Cols))
	}
	for c := range counts {
		if len(counts[c]) != m.B.Cols[c].NumBins() {
			return fmt.Errorf("core: column %d has %d counts, %d bins", c, len(counts[c]), m.B.Cols[c].NumBins())
		}
	}
	m.seedBinCounts(counts)
	return nil
}

// affinityFromCounts computes the flat affinity matrix for the given
// cumulative counts over n rows. The frequency arithmetic (float64 count ×
// 1/n) reproduces the historical per-row accumulation bit for bit: counting
// in float64 is exact far beyond any table size, and the single multiply by
// the inverse is the same final operation.
func (m *Model) affinityFromCounts(counts [][]int64, n int) []float64 {
	mc := m.T.NumCols()
	inv := 1 / float64(max(1, n))
	freqs := make([][]float64, mc)
	for c := range freqs {
		f := make([]float64, len(counts[c]))
		for i, cnt := range counts[c] {
			f[i] = float64(cnt) * inv
		}
		freqs[c] = f
	}
	aff := make([]float64, mc*mc)
	f32.ParallelIndex(mc, f32.Workers(mc), func(i int) {
		for j := i + 1; j < mc; j++ {
			a := (m.directedAffinity(i, j, freqs[i]) + m.directedAffinity(j, i, freqs[j])) / 2
			aff[i*mc+j], aff[j*mc+i] = a, a
		}
	})
	return aff
}

// ColumnAffinity returns the global association affinity of two columns.
func (m *Model) ColumnAffinity(u, w int) float64 {
	if u == w {
		return 0
	}
	return m.colAffinity[u*m.T.NumCols()+w]
}

// ItemVector returns the embedding of a global item id (nil when unseen).
// The returned slice is a view into the embedding matrix.
func (m *Model) ItemVector(item int32) []float32 {
	if item < 0 || int(item) >= len(m.itemRow) {
		return nil
	}
	row := m.itemRow[item]
	if row < 0 {
		return nil
	}
	return m.items.Row(int(row))
}

// RowVector computes the tuple-vector of source row r over the given column
// indices: the component-wise average of its cell vectors (Alg. 2 line 9).
func (m *Model) RowVector(r int, cols []int) []float32 {
	v := make([]float32, m.Emb.Dim())
	m.rowVectorInto(v, r, cols, make([]int32, len(cols)))
	return v
}

// rowVectorInto writes row r's tuple-vector into v, using idx (len(cols))
// as gather scratch.
func (m *Model) rowVectorInto(v []float32, r int, cols []int, idx []int32) {
	for j, c := range cols {
		idx[j] = m.itemRow[m.B.Item(c, r)]
	}
	f32.MeanPoolInto(v, m.items, idx)
}

// ColVector computes the column-vector of column c over the given source
// rows: the average of its cell vectors (Alg. 2 line 14).
func (m *Model) ColVector(c int, rows []int) []float32 {
	v := make([]float32, m.Emb.Dim())
	m.colVectorInto(v, c, rows, make([]int32, len(rows)))
	return v
}

// colVectorInto writes column c's mean vector into v, using idx (len(rows))
// as gather scratch.
func (m *Model) colVectorInto(v []float32, c int, rows []int, idx []int32) {
	for i, r := range rows {
		idx[i] = m.itemRow[m.B.Item(c, r)]
	}
	f32.MeanPoolInto(v, m.items, idx)
}

// SubTable is a selected k×l sub-table.
type SubTable struct {
	// SourceRows are the selected rows as indices into the original table.
	SourceRows []int
	// Cols are the selected column names, in original table order.
	Cols []string
	// ColIdx are the selected columns as indices into the original table.
	ColIdx []int
	// View is the rendered k×l table.
	View *table.Table
}

// AsMetricSubTable adapts the selection for the metrics package.
func (s *SubTable) AsMetricSubTable() metrics.SubTable {
	return metrics.SubTable{Rows: s.SourceRows, Cols: s.ColIdx}
}

// Select runs the selection phase on the whole table (Q = NULL in Alg. 2).
func (m *Model) Select(k, l int, targets []string) (*SubTable, error) {
	return m.SelectWith(nil, k, l, targets, nil)
}

// SelectQuery runs the selection phase on the result of q. Selection and
// projection reuse the pre-computed cell vectors; for group-by queries, each
// result row is represented by its group's first source row (aggregate cells
// do not exist in T and therefore have no embedding).
func (m *Model) SelectQuery(q *query.Query, k, l int, targets []string) (*SubTable, error) {
	return m.SelectWith(q, k, l, targets, nil)
}

// SelectWith is Select/SelectQuery with a per-call override of the
// large-table mode: scale nil uses the model's configured Options.Scale,
// anything else replaces it for this call only (serving layers expose it as
// a request knob). q nil selects over the whole table.
//
// Where/Select/Limit queries run on the streaming path: the conjunction is
// compiled against the binning (binning.CompileFilter) and evaluated over
// code blocks with per-block residual cell checks, so paged and sharded
// tables filter without materializing a resident copy. Queries the
// evaluator cannot compile (group-by/aggregates, an effective order-by)
// fall back to the resident-cell path — and are refused on paged tables
// instead of silently re-inflating RSS.
func (m *Model) SelectWith(q *query.Query, k, l int, targets []string, scale *ScaleOptions) (*SubTable, error) {
	sc := m.Opt.Scale
	if scale != nil {
		sc = *scale
	}
	if q == nil {
		rows := make([]int, m.T.NumRows())
		for i := range rows {
			rows[i] = i
		}
		cols := make([]int, m.T.NumCols())
		for i := range cols {
			cols[i] = i
		}
		return m.selectFrom(rows, cols, k, l, targets, sc)
	}
	if m.streamableQuery(q) {
		cols, err := m.queryCols(q)
		if err != nil {
			return nil, err
		}
		return m.selectFiltered(q.Where, q.Limit, nil, cols, k, l, targets, sc, exploreOpts{})
	}
	return m.selectWithMaterialized(q, k, l, targets, sc)
}

// selectWithMaterialized is the resident-cell query path: full relational
// evaluation (group-by, aggregates, sorting) via query.Apply. It requires
// the raw cells in memory, so paged tables refuse it — re-materializing a
// resident copy would silently re-inflate exactly the footprint paging
// shed. Streamable queries never come here (see SelectWith).
func (m *Model) selectWithMaterialized(q *query.Query, k, l int, targets []string, sc ScaleOptions) (*SubTable, error) {
	if !m.T.CellsResident() {
		return nil, fmt.Errorf("core: query %q needs group-by/aggregate/order-by evaluation over raw cells, which this paged table does not hold; enable streaming predicates by restricting the query to where/select/limit (%w)", q.String(), query.ErrCellsPaged)
	}
	res, srcRows, err := q.Apply(m.T)
	if err != nil {
		return nil, fmt.Errorf("core: applying query: %w", err)
	}
	// Working columns: the result's columns that exist in T (aggregate
	// columns do not; they are excluded from embedding-based selection).
	var cols []int
	for _, name := range res.ColumnNames() {
		if ci := m.T.ColumnIndex(name); ci >= 0 {
			cols = append(cols, ci)
		}
	}
	if len(cols) == 0 {
		// Pure aggregate result: fall back to all original columns.
		cols = make([]int, m.T.NumCols())
		for i := range cols {
			cols[i] = i
		}
	}
	return m.selectFrom(srcRows, cols, k, l, targets, sc)
}

// selectFrom clusters the candidate rows and columns and picks centroids.
func (m *Model) selectFrom(rows, cols []int, k, l int, targets []string, scale ScaleOptions) (*SubTable, error) {
	return m.selectFromOpts(rows, cols, k, l, targets, scale, exploreOpts{})
}

// exploreOpts carries the exploration-session extensions of a selection.
// The zero value leaves the historical selection path untouched — every
// branch it gates is skipped, which is what keeps the never-recording
// goldens valid.
type exploreOpts struct {
	// preds, on a coordinator with remote shards, is the conjunction pushed
	// into the per-shard scans (the rows argument is then nil: the matching
	// row set exists only as shard-local masks).
	preds []query.Predicate
	// covered marks (column, bin) strata — global item ids — the session has
	// already shown; the stratified reservoir serves uncovered strata first.
	covered *bitset.Set
	// colBias multiplies per-source-column selection scores (DataPilot-style
	// null-rate / view-count weighting); nil means unbiased.
	colBias []float64
}

func (m *Model) selectFromOpts(rows, cols []int, k, l int, targets []string, scale ScaleOptions, opt exploreOpts) (*SubTable, error) {
	if k <= 0 || l <= 0 {
		return nil, fmt.Errorf("core: sub-table dimensions must be positive, got %dx%d", k, l)
	}
	remote := false
	if src := m.ShardSource(); src != nil && !src.Complete() {
		remote = true
	}
	pushdown := remote && len(opt.preds) > 0
	if !pushdown && len(rows) == 0 {
		return nil, fmt.Errorf("core: no rows to select from")
	}
	targetIdx := make(map[int]bool, len(targets))
	for _, name := range targets {
		ci := m.T.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("core: unknown target column %q", name)
		}
		targetIdx[ci] = true
	}
	if len(targetIdx) > l {
		return nil, fmt.Errorf("core: %d target columns exceed l=%d", len(targetIdx), l)
	}

	// A model with remote shards cannot read arbitrary cells; the only
	// selections it can serve are the scaled paths whose reads all resolve
	// through the scatter/gather sampler's overlay: the full-table scan, or
	// a predicate pushdown (each peer filters its own rows before scanning).
	if remote {
		if m.shardSampler == nil {
			return nil, fmt.Errorf("core: table has remote shards and no shard sampler installed; selections need a coordinator with shard peers")
		}
		if opt.covered != nil || opt.colBias != nil {
			return nil, fmt.Errorf("core: session-biased selections need the table's shards local")
		}
		if !pushdown {
			if !scale.Active(len(rows)) {
				return nil, fmt.Errorf("core: a table with remote shards serves scaled selections only (set ScaleOptions.Threshold)")
			}
			if len(rows) != m.T.NumRows() || !identityRows(rows) || !identityCols(cols, m.T.NumCols()) {
				return nil, fmt.Errorf("core: a table with remote shards serves full-table selections only (queries need the rows local)")
			}
		} else if scale.Threshold <= 0 {
			return nil, fmt.Errorf("core: a table with remote shards serves scaled selections only (set ScaleOptions.Threshold)")
		}
	}

	// Row selection (Alg. 2 lines 8-12): cluster the tuple-vectors, then
	// pick one representative per cluster. Among each cluster's most-central
	// members we take the row least similar (binned Jaccard, the measure of
	// Def. 3.7) to the rows already chosen: centrality keeps representatives
	// typical of their pattern, the Jaccard tie-break keeps the displayed
	// set diverse.
	//
	// All tuple-vectors go into one contiguous matrix. Full-column
	// selections read the cached full-table matrix (a tuple-vector depends
	// only on the column set); anything else fills a pooled slab in
	// parallel — every row writes only its own matrix row, so the fill is
	// deterministic at any worker count.
	//
	// Above the scale threshold the candidate set is first cut to a
	// deterministic stratified sample and clustered with seeded mini-batch
	// k-means; everything downstream (diversity re-rank, column selection)
	// runs over the sampled candidates only, then maps representatives back
	// to real row ids.
	dim := m.Emb.Dim()
	candRows := rows
	// overlay, when non-nil, holds a coordinator model's sampled rows'
	// codes by candidate position (overlay[c][i] is column c's code of
	// candRows[i]): every downstream code read of this selection goes
	// through it instead of the (partly remote) shard source.
	var overlay [][]uint16
	var rowVecs f32.Matrix
	var rowRes *cluster.Result
	if pushdown || scale.Active(len(rows)) {
		scale = scale.withDefaults()
		if pushdown {
			fs, ok := m.shardSampler.(FilteredShardSampler)
			if !ok {
				return nil, fmt.Errorf("core: installed shard sampler cannot push predicates down to peers")
			}
			sampled, codes, matched, err := fs.SampleFiltered(cols, scale.SampleBudget, opt.preds)
			if err != nil {
				return nil, fmt.Errorf("core: scatter/gather sampling: %w", err)
			}
			if matched == 0 {
				return nil, fmt.Errorf("core: no rows to select from")
			}
			if !scale.Active(matched) {
				return nil, fmt.Errorf("core: a table with remote shards serves scaled selections only (%d matching rows under threshold %d)", matched, scale.Threshold)
			}
			candRows, overlay = sampled, codes
		} else if remote {
			sampled, codes, err := m.shardSampler.Sample(cols, scale.SampleBudget)
			if err != nil {
				return nil, fmt.Errorf("core: scatter/gather sampling: %w", err)
			}
			candRows, overlay = sampled, codes
		} else if opt.covered != nil && strataCount(m.B, cols) > scale.SampleBudget {
			// Session-biased samples depend on mutable session state, so
			// they bypass the per-budget sample cache. The bias only
			// reorders the coverage phase, so with no more strata than
			// budget it cannot change the sample and the cached unbiased
			// sampler below serves the select.
			seed := m.Opt.ClusterSeed ^ scaleSampleSeed
			candRows = stratifiedReservoirBiased(m.B, rows, cols, scale.SampleBudget, seed, opt.covered.Contains)
		} else {
			candRows = m.sampleCandidates(rows, cols, scale.SampleBudget)
		}
		var release func()
		rowVecs, release = m.sampledRowVectors(candRows, cols, overlay)
		defer release()
		rowRes = cluster.MiniBatchKMeans(rowVecs, k, cluster.MiniBatchOptions{
			BatchSize: scale.BatchSize,
			MaxIter:   scale.MaxIter,
			Seed:      m.Opt.ClusterSeed,
		})
	} else if identityCols(cols, m.T.NumCols()) && !m.OutOfCore() {
		// Store-backed models skip this branch: warming the n×dim full-table
		// vector cache would resurrect the very footprint the code store
		// exists to shed, so they gather per-request below instead (the
		// gather computes bit-identical vectors; see gatherTupleVectors).
		full := m.fullRowVectors()
		if len(rows) == m.T.NumRows() && identityRows(rows) {
			rowVecs = full
		} else {
			buf := getVecBuf(len(rows) * dim)
			defer putVecBuf(buf)
			rowVecs = f32.Wrap(len(rows), dim, *buf)
			f32.GatherRows(rowVecs, full, rows)
		}
	} else {
		buf := getVecBuf(len(rows) * dim)
		defer putVecBuf(buf)
		rowVecs = f32.Wrap(len(rows), dim, *buf)
		m.gatherTupleVectors(rowVecs, rows, cols, nil)
	}
	if rowRes == nil {
		rowRes = cluster.KMeansMatrix(rowVecs, k, cluster.Options{Seed: m.Opt.ClusterSeed})
	}
	repIdx := m.diverseRepresentatives(rowRes, rowVecs, candRows, cols, 16, overlay)
	selRows := make([]int, 0, len(repIdx))
	for _, i := range repIdx {
		selRows = append(selRows, candRows[i])
	}

	// Column selection: targets are forced; the rest of the budget is spent
	// by the configured strategy.
	var candCols []int
	for _, c := range cols {
		if !targetIdx[c] {
			candCols = append(candCols, c)
		}
	}
	need := l - len(targetIdx)
	selColSet := make(map[int]bool, l)
	for c := range targetIdx {
		selColSet[c] = true
	}
	if need > 0 && len(candCols) > 0 {
		// Column vectors average over candidate rows: on the scaled path
		// that is the stratified sample, which keeps the column step
		// O(SampleBudget) per column too.
		var picked []int
		if opt.colBias != nil {
			picked = m.biasedColumns(candCols, need, opt.colBias)
		} else if m.Opt.Columns == Centroids {
			picked = m.centroidColumns(candCols, candRows, need, overlay)
		} else {
			picked = m.patternGroupColumns(candCols, candRows, need)
		}
		for _, c := range picked {
			selColSet[c] = true
		}
	}

	// Assemble the view with columns in original order.
	st := &SubTable{SourceRows: selRows}
	for c := 0; c < m.T.NumCols(); c++ {
		if selColSet[c] {
			st.ColIdx = append(st.ColIdx, c)
			st.Cols = append(st.Cols, m.T.ColumnAt(c).Name)
		}
	}
	var view *table.Table
	var err error
	if m.cellSrc != nil {
		// Paged cells: gather exactly the k×l selected cells out of the
		// column store (or over the wire) instead of indexing the table.
		view, err = table.GatherView(m.cellSrc, m.T.Name, selRows, st.ColIdx)
	} else {
		view, err = m.T.SubTableView(selRows, st.Cols)
	}
	if err != nil {
		return nil, err
	}
	st.View = view
	return st, nil
}

// diverseRepresentatives picks one row per cluster: among the q members
// nearest each cluster's centroid, the one with the lowest average binned
// Jaccard similarity to the rows already picked. Clusters are visited in
// descending size order; the first (dominant) cluster contributes its most
// central member. Distance ties among a cluster's members break toward the
// lower candidate index. The per-point centroid distances and the per-candidate
// Jaccard scans run across workers; each slot is written by exactly one
// index and the final argmin scan is serial with first-wins ties, so the
// result is bit-identical to the serial path. overlay, when non-nil, holds
// the rows' codes by position (the coordinator overlay) and the Jaccard
// comparisons read them there.
func (m *Model) diverseRepresentatives(res *cluster.Result, vecs f32.Matrix, rows, cols []int, q int, overlay [][]uint16) []int {
	if res.K == 0 {
		return nil
	}
	n := vecs.R
	ds := make([]float64, n)
	f32.ParallelRange(n, f32.Workers(n), func(start, end int) {
		for i := start; i < end; i++ {
			ds[i] = f32.SqDist(vecs.Row(i), res.Centers[res.Assign[i]])
		}
	})
	// Each cluster keeps its q nearest members in ascending (distance,
	// index) order, one insertion pass over the points: a member enters
	// only if it beats the current q-th, and equal distances keep the
	// lower index first because indices arrive ascending.
	type cand struct {
		idx int
		d   float64
	}
	top := make([]cand, res.K*q)
	cands := make([][]cand, res.K)
	for c := range cands {
		cands[c] = top[c*q : c*q : (c+1)*q]
	}
	for i := 0; i < n; i++ {
		cs, d := cands[res.Assign[i]], ds[i]
		if len(cs) == q {
			if d >= cs[q-1].d {
				continue
			}
			cs = cs[:q-1]
		}
		j := len(cs)
		cs = append(cs, cand{})
		for ; j > 0 && cs[j-1].d > d; j-- {
			cs[j] = cs[j-1]
		}
		cs[j] = cand{i, d}
		cands[res.Assign[i]] = cs
	}
	order := make([]int, res.K)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		if res.Sizes[order[x]] != res.Sizes[order[y]] {
			return res.Sizes[order[x]] > res.Sizes[order[y]]
		}
		return order[x] < order[y]
	})
	// code reads column c of candidate i.
	code := func(c, i int) uint16 { return m.B.Code(c, rows[i]) }
	if overlay != nil {
		code = func(c, i int) uint16 { return overlay[c][i] }
	}
	jaccard := func(i1, i2 int) float64 {
		if len(cols) == 0 {
			return 0
		}
		same := 0
		for _, c := range cols {
			if code(c, i1) == code(c, i2) {
				same++
			}
		}
		return float64(same) / float64(len(cols))
	}
	sims := make([]float64, q)
	var out []int
	for _, c := range order {
		if len(cands[c]) == 0 {
			continue
		}
		if len(out) == 0 {
			out = append(out, cands[c][0].idx)
			continue
		}
		cs := cands[c]
		f32.ParallelIndex(len(cs), f32.Workers(len(cs)), func(x int) {
			sim := 0.0
			for _, sel := range out {
				sim += jaccard(cs[x].idx, sel)
			}
			sims[x] = sim / float64(len(out))
		})
		best, bestSim := -1, math.Inf(1)
		for x := range cs {
			if sims[x] < bestSim {
				best, bestSim = cs[x].idx, sims[x]
			}
		}
		out = append(out, best)
	}
	return out
}

// centroidColumns is the literal Algorithm 2 column step: k-means over the
// column-mean vectors, one representative per cluster. overlay, when
// non-nil, holds the rows' codes by position (the coordinator overlay) and
// the column vectors read them there; the gather arithmetic is identical
// either way.
func (m *Model) centroidColumns(candCols, rows []int, need int, overlay [][]uint16) []int {
	colVecs := f32.New(len(candCols), m.Emb.Dim())
	f32.ParallelRange(len(candCols), f32.Workers(len(candCols)), func(start, end int) {
		idx := make([]int32, len(rows))
		for i := start; i < end; i++ {
			c := candCols[i]
			if overlay == nil {
				m.colVectorInto(colVecs.Row(i), c, rows, idx)
				continue
			}
			base := m.B.ItemOf(c, 0)
			for j, code := range overlay[c][:len(rows)] {
				idx[j] = m.itemRow[base+int32(code)]
			}
			f32.MeanPoolInto(colVecs.Row(i), m.items, idx)
		}
	})
	colRes := cluster.KMeansMatrix(colVecs, need, cluster.Options{Seed: m.Opt.ClusterSeed + 1})
	out := make([]int, 0, need)
	for _, i := range colRes.RepresentativesMatrix(colVecs) {
		out = append(out, candCols[i])
	}
	return out
}

// fullRowVectors lazily builds the tuple-vector matrix of every row over
// the full column set, filled in parallel with disjoint per-row writes. The
// arithmetic per row is exactly rowVectorInto's, so cached vectors are
// bit-identical to freshly computed ones. The build runs under fullVecsMu
// (single-flight: concurrent first selections block instead of building
// twice), and the returned matrix header stays valid even if
// ReleaseVectorCache evicts the cache mid-selection — callers hold their
// own reference to the immutable backing array.
func (m *Model) fullRowVectors() f32.Matrix {
	if mat, ok := m.cachedFullVecs(); ok {
		return mat
	}
	m.fullVecsMu.Lock()
	if m.fullVecsReady.Load() {
		mat := m.fullVecs
		m.fullVecsMu.Unlock()
		return mat
	}
	n := m.T.NumRows()
	cols := make([]int, m.T.NumCols())
	for i := range cols {
		cols[i] = i
	}
	mat := f32.New(n, m.Emb.Dim())
	f32.ParallelRange(n, f32.Workers(n), func(start, end int) {
		idx := make([]int32, len(cols))
		for r := start; r < end; r++ {
			m.rowVectorInto(mat.Row(r), r, cols, idx)
		}
	})
	m.fullVecs = mat
	m.fullVecsReady.Store(true)
	m.fullVecsGen++
	gen := m.fullVecsGen
	m.fullVecsMu.Unlock()
	// Settle outside the mutex: the grow may trigger store eviction, whose
	// callback takes model mutexes. A release racing this settle wins by
	// generation (its higher gen discards this one).
	m.vecAccount().Settle(gen, int64(len(mat.Data))*4)
	return mat
}

// cachedFullVecs returns a header copy of the warm full-table vector cache,
// or ok=false when it is cold. The copy remains valid after a concurrent
// ReleaseVectorCache (the backing array is immutable once published).
func (m *Model) cachedFullVecs() (f32.Matrix, bool) {
	if !m.fullVecsReady.Load() {
		return f32.Matrix{}, false
	}
	m.fullVecsMu.Lock()
	mat, ok := m.fullVecs, m.fullVecsReady.Load()
	m.fullVecsMu.Unlock()
	return mat, ok
}

// seedFullVecs installs a pre-built full-table tuple-vector matrix (the
// append path extends the previous model's warm cache). No-op if a cache is
// already published.
func (m *Model) seedFullVecs(mat f32.Matrix) {
	m.fullVecsMu.Lock()
	if m.fullVecsReady.Load() {
		m.fullVecsMu.Unlock()
		return
	}
	m.fullVecs = mat
	m.fullVecsReady.Store(true)
	m.fullVecsGen++
	gen := m.fullVecsGen
	m.fullVecsMu.Unlock()
	m.vecAccount().Settle(gen, int64(len(mat.Data))*4)
}

// identityCols reports whether cols is exactly 0..mc-1.
func identityCols(cols []int, mc int) bool {
	if len(cols) != mc {
		return false
	}
	for i, c := range cols {
		if c != i {
			return false
		}
	}
	return true
}

// identityRows reports whether rows is 0..len(rows)-1.
func identityRows(rows []int) bool {
	for i, r := range rows {
		if r != i {
			return false
		}
	}
	return true
}

// vecBufPool recycles the flat tuple-vector slab across Selects: warm
// serving issues many selections over the same model, and the slab (rows ×
// dim floats) is by far the largest per-request allocation.
var vecBufPool = sync.Pool{New: func() any { return new([]float32) }}

func getVecBuf(n int) *[]float32 {
	buf := vecBufPool.Get().(*[]float32)
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	*buf = (*buf)[:n]
	return buf
}

func putVecBuf(buf *[]float32) { vecBufPool.Put(buf) }

// patternGroupColumns groups candidate columns by pairwise association
// affinity (precomputed globally at pre-processing time) and spends the
// budget on whole groups (largest mass first), padding any remaining budget
// with the columns of highest salience.
func (m *Model) patternGroupColumns(candCols, rows []int, need int) []int {
	mcols := len(candCols)
	if need >= mcols {
		return append([]int(nil), candCols...)
	}

	// Pairwise affinities from the precomputed global matrix.
	aff := make([][]float64, mcols)
	for i := range aff {
		aff[i] = make([]float64, mcols)
	}
	var vals []float64
	for i := 0; i < mcols; i++ {
		for j := i + 1; j < mcols; j++ {
			a := m.ColumnAffinity(candCols[i], candCols[j])
			aff[i][j], aff[j][i] = a, a
			vals = append(vals, a)
		}
	}
	if len(vals) == 0 {
		return candCols[:need]
	}
	mean, std := meanStd(vals)
	threshold := mean + 0.75*std

	// Union-find over strong edges.
	parent := make([]int, mcols)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < mcols; i++ {
		for j := i + 1; j < mcols; j++ {
			if aff[i][j] >= threshold {
				parent[find(i)] = find(j)
			}
		}
	}
	groups := map[int][]int{}
	for i := range parent {
		groups[find(i)] = append(groups[find(i)], i)
	}
	// Salience of a column: its strongest affinity to any other column.
	salience := make([]float64, mcols)
	for i := 0; i < mcols; i++ {
		best := math.Inf(-1)
		for j := 0; j < mcols; j++ {
			if j != i && aff[i][j] > best {
				best = aff[i][j]
			}
		}
		salience[i] = best
	}
	type group struct {
		members []int
		mass    float64
	}
	var ranked []group
	for _, g := range groups {
		if len(g) < 2 {
			continue // singletons join the salience pool
		}
		mass := 0.0
		for _, i := range g {
			for _, j := range g {
				if i < j {
					mass += aff[i][j] - mean // positive part above background
				}
			}
		}
		// Order members as a greedy affinity core — start from the group's
		// strongest pair, then repeatedly append the member with the highest
		// total affinity to the members already kept — so that truncation
		// preserves tightly associated column sets (the rule-bearing cores)
		// rather than weakly connected hubs.
		ranked = append(ranked, group{members: greedyCore(aff, g), mass: mass})
	}
	sort.Slice(ranked, func(x, y int) bool {
		if len(ranked[x].members) != len(ranked[y].members) {
			return len(ranked[x].members) > len(ranked[y].members)
		}
		return ranked[x].mass > ranked[y].mass
	})

	picked := make([]int, 0, need)
	taken := make([]bool, mcols)
	for _, g := range ranked {
		for _, i := range g.members {
			if len(picked) >= need {
				break
			}
			picked = append(picked, candCols[i])
			taken[i] = true
		}
	}
	// Pad with the most salient leftover columns.
	if len(picked) < need {
		rest := make([]int, 0, mcols)
		for i := 0; i < mcols; i++ {
			if !taken[i] {
				rest = append(rest, i)
			}
		}
		sort.Slice(rest, func(x, y int) bool { return salience[rest[x]] > salience[rest[y]] })
		for _, i := range rest {
			if len(picked) >= need {
				break
			}
			picked = append(picked, candCols[i])
		}
	}
	return picked
}

// directedAffinity measures how strongly column u's bins associate with
// column w: the frequency-weighted mean, over u's bins, of the best
// association with any of w's bins.
func (m *Model) directedAffinity(u, w int, uFreq []float64) float64 {
	b := m.B
	s, tot := 0.0, 0.0
	for bi, f := range uFreq {
		if f == 0 {
			continue
		}
		best := math.Inf(-1)
		for bj := 0; bj < b.Cols[w].NumBins(); bj++ {
			if a := m.Emb.Association(b.ItemOf(u, bi), b.ItemOf(w, bj)); a > best {
				best = a
			}
		}
		if math.IsInf(best, -1) {
			continue
		}
		s += f * best
		tot += f
	}
	if tot == 0 {
		return 0
	}
	return s / tot
}

// greedyCore orders a group's members by greedy max-affinity growth: the
// strongest pair first, then whichever member is most affine to the kept
// set.
func greedyCore(aff [][]float64, group []int) []int {
	if len(group) <= 2 {
		return group
	}
	bi, bj, best := group[0], group[1], math.Inf(-1)
	for x := 0; x < len(group); x++ {
		for y := x + 1; y < len(group); y++ {
			if a := aff[group[x]][group[y]]; a > best {
				bi, bj, best = group[x], group[y], a
			}
		}
	}
	kept := []int{bi, bj}
	inKept := map[int]bool{bi: true, bj: true}
	for len(kept) < len(group) {
		bestM, bestA := -1, math.Inf(-1)
		for _, m := range group {
			if inKept[m] {
				continue
			}
			a := 0.0
			for _, kmem := range kept {
				a += aff[m][kmem]
			}
			if a > bestA {
				bestM, bestA = m, a
			}
		}
		kept = append(kept, bestM)
		inKept[bestM] = true
	}
	return kept
}

func meanStd(xs []float64) (float64, float64) {
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		d := x - m
		v += d * d
	}
	return m, math.Sqrt(v / float64(len(xs)))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Highlight computes, for each sub-table row, one covered association rule
// to highlight (at most one per row, as in the paper's Figure 1 UI) and
// returns a cell predicate for table.Render plus the chosen rule index per
// row (-1 when none).
func Highlight(b *binning.Binned, rs []rules.Rule, st *SubTable) (func(r, ci int) bool, []int) {
	colPos := make(map[int]int, len(st.ColIdx)) // table col -> view col
	colSet := make(map[int]bool, len(st.ColIdx))
	for vi, c := range st.ColIdx {
		colPos[c] = vi
		colSet[c] = true
	}
	perRow := make([]int, len(st.SourceRows))
	mark := make(map[[2]int]bool)
	for vi, srcRow := range st.SourceRows {
		perRow[vi] = -1
		best, bestSize := -1, 0
		for ri := range rs {
			r := &rs[ri]
			if !r.Tuples.Contains(srcRow) {
				continue
			}
			ok := true
			for _, c := range r.Cols {
				if !colSet[c] {
					ok = false
					break
				}
			}
			if ok && len(r.Cols) > bestSize {
				best, bestSize = ri, len(r.Cols)
			}
		}
		perRow[vi] = best
		if best >= 0 {
			for _, c := range rs[best].Cols {
				mark[[2]int{vi, colPos[c]}] = true
			}
		}
	}
	return func(r, ci int) bool { return mark[[2]int{r, ci}] }, perRow
}
