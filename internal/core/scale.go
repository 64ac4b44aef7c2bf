package core

import (
	"subtab/internal/f32"
)

// ScaleOptions configures the large-table selection mode: above a row-count
// threshold, Select clusters a deterministic stratified sample of the
// candidate rows with mini-batch k-means instead of running exact k-means
// over every tuple-vector, turning the per-display cost from O(rows) into
// O(SampleBudget) and opening million-row tables to interactive selection.
//
// The mode is a pure gate: below the threshold (or with the zero value) the
// selection path is bit-for-bit the exact path, a guarantee pinned by the
// golden fingerprint tests. Above it, selections remain deterministic — the
// sampler is min-hash based and the mini-batch clustering is seeded — so the
// same model and request always yield the same sub-table; the sub-table just
// comes from a principled sample rather than the full relation.
type ScaleOptions struct {
	// Threshold activates the scaled path when the candidate row set (the
	// whole table, or a query result) has at least this many rows. 0 (the
	// default) disables the mode entirely; 1 forces it for any input, which
	// the equivalence tests use to fingerprint the scaled path on small
	// tables.
	Threshold int
	// SampleBudget caps the candidate rows fed to clustering (default
	// 20000). The stratified sampler guarantees every non-empty (column,
	// bin) item among the candidates is represented, budget permitting.
	SampleBudget int
	// BatchSize is the mini-batch size (default 1024).
	BatchSize int
	// MaxIter bounds mini-batch iterations (default 100).
	MaxIter int
}

// Active reports whether the scaled path handles a candidate set of n rows.
func (s ScaleOptions) Active(n int) bool { return s.Threshold > 0 && n >= s.Threshold }

func (s ScaleOptions) withDefaults() ScaleOptions {
	if s.SampleBudget <= 0 {
		s.SampleBudget = 20000
	}
	if s.BatchSize <= 0 {
		s.BatchSize = 1024
	}
	if s.MaxIter <= 0 {
		s.MaxIter = 100
	}
	return s
}

// scaleSampleSeed decorrelates the sampler's hash domain from the k-means
// seeding rng, which also derives from ClusterSeed.
const scaleSampleSeed = 0x5ca1ab1e5eed

// sampleCandidates picks the scaled path's candidate rows: a deterministic
// stratified reservoir over the (column, bin) items of the candidate set.
// Full-table samples are memoized per budget (the cache returns exactly
// what a fresh scan would, so warm and cold selections stay byte-identical);
// the lock doubles as a single-flight so concurrent first selections do not
// scan the table twice. Callers must not mutate the returned slice.
func (m *Model) sampleCandidates(rows, cols []int, budget int) []int {
	seed := m.Opt.ClusterSeed ^ scaleSampleSeed
	if len(rows) != m.T.NumRows() || !identityRows(rows) || !identityCols(cols, m.T.NumCols()) {
		return stratifiedReservoir(m.B, rows, cols, budget, seed)
	}
	m.sampleMu.Lock()
	if s, ok := m.sampleCache[budget]; ok {
		m.sampleMu.Unlock()
		return s
	}
	s := stratifiedReservoir(m.B, rows, cols, budget, seed)
	if m.sampleCache == nil {
		m.sampleCache = make(map[int][]int, 1)
	} else if len(m.sampleCache) >= 8 {
		// Warm serving uses one or two budgets; an adversarial budget sweep
		// must not grow the model unboundedly.
		clear(m.sampleCache)
	}
	m.sampleCache[budget] = s
	bytes := sampleCacheBytes(m.sampleCache)
	m.sampleGen++
	gen := m.sampleGen
	m.sampleMu.Unlock()
	// Settle outside sampleMu: the grow may run the store's evictor, which
	// takes this very mutex via ReleaseVectorCache.
	m.sampleAccount().Settle(gen, bytes)
	return s
}

// sampledRowVectors builds the tuple-vector matrix of a sampled candidate
// set in a pooled buffer. A warm full-table cache turns the build into a
// row gather; otherwise only the sampled rows are computed — the scaled
// path never materializes vectors for rows the sample dropped, which is the
// point of sampling before embedding lookup on million-row tables. The
// returned release hands the buffer back to the pool. overlay, when
// non-nil, holds the rows' codes by position (the coordinator's gathered
// shard codes) and replaces the model's own code source for the gather.
func (m *Model) sampledRowVectors(rows, cols []int, overlay [][]uint16) (f32.Matrix, func()) {
	dim := m.Emb.Dim()
	buf := getVecBuf(len(rows) * dim)
	mat := f32.Wrap(len(rows), dim, *buf)
	if fv, ok := m.cachedFullVecs(); ok && overlay == nil && identityCols(cols, m.T.NumCols()) {
		f32.GatherRows(mat, fv, rows)
	} else {
		m.gatherTupleVectors(mat, rows, cols, overlay)
	}
	return mat, func() { putVecBuf(buf) }
}

// gatherTupleVectors fills dst with the tuple-vectors of the given rows
// over cols. With resident codes it is the historical per-row parallel
// fill; for a store-backed binning it builds the gather-index slab in
// column-major block order — one sequential pass per column through the
// code store, the access pattern the store's layout is built for — and
// pools whole rows with the f32.MeanPoolRows kernel. Both paths compute
// identical vectors (same per-row index values, same pooling arithmetic).
// A non-nil overlay holds the rows' codes by position (the coordinator
// overlay) and is read column by column instead of the model's own inline
// codes or attached store.
func (m *Model) gatherTupleVectors(dst f32.Matrix, rows, cols []int, overlay [][]uint16) {
	k := len(cols)
	if overlay != nil {
		idx := make([]int32, len(rows)*k)
		for j, c := range cols {
			base := m.B.ItemOf(c, 0)
			for i, code := range overlay[c][:len(rows)] {
				idx[i*k+j] = m.itemRow[base+int32(code)]
			}
		}
		f32.MeanPoolRows(dst, m.items, idx, k)
		return
	}
	if m.B.HasInlineCodes() {
		f32.ParallelRange(len(rows), f32.Workers(len(rows)), func(start, end int) {
			idx := make([]int32, len(cols))
			for i := start; i < end; i++ {
				m.rowVectorInto(dst.Row(i), rows[i], cols, idx)
			}
		})
		return
	}
	src := m.B.Source()
	idx := make([]int32, len(rows)*k)
	br := src.BlockRows()
	if len(rows)*8 < src.NumRows() {
		// Sparse gather: the sampled rows touch a small fraction of every
		// block, so per-cell random access (a two-byte mmap load) beats
		// decoding whole blocks to use a sliver of each.
		f32.ParallelRange(len(rows), f32.Workers(len(rows)), func(start, end int) {
			for i := start; i < end; i++ {
				r := rows[i]
				for j, c := range cols {
					idx[i*k+j] = m.itemRow[m.B.ItemOf(c, int(src.Code(c, r)))]
				}
			}
		})
	} else {
		var scratch []uint16
		for j, c := range cols {
			base := m.B.ItemOf(c, 0)
			blk := -1
			var codes []uint16
			for i, r := range rows {
				if nb := r / br; nb != blk {
					blk = nb
					codes = src.ColumnBlock(c, blk, scratch)
					scratch = codes
				}
				idx[i*k+j] = m.itemRow[base+int32(codes[r-blk*br])]
			}
		}
	}
	f32.MeanPoolRows(dst, m.items, idx, k)
}
