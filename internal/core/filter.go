package core

import (
	"fmt"
	"slices"
	"sort"

	"subtab/internal/binning"
	"subtab/internal/bitset"
	"subtab/internal/query"
	"subtab/internal/shard"
)

// Streaming predicate-scoped selection: Where/Select/Limit queries compile
// into a code-level filter (binning.CompileFilter) and evaluate over the
// model's CodeSource blocks, with residual cell checks batched through the
// paged column store for bin-boundary rows only. Paged and sharded tables
// therefore filter without materializing a resident copy, and coordinators
// push the conjunction into the per-shard scans. Everything downstream of
// the row set is the historical selection path, so streaming-filter results
// are byte-identical to materialize-then-filter on resident tables.

// streamableQuery reports whether q runs on the streaming path: pure
// conjunction + projection + limit. Group-by synthesizes aggregate rows,
// and an effective order-by (naming a projected column) permutes the row
// order feeding clustering; both need query.Apply's resident-cell
// evaluation. An order-by naming a column outside the projection is a
// no-op in Apply, so it does not block streaming.
func (m *Model) streamableQuery(q *query.Query) bool {
	if len(q.GroupBy) > 0 {
		return false
	}
	if q.OrderBy == "" {
		return true
	}
	if len(q.Select) == 0 {
		return m.T.ColumnIndex(q.OrderBy) < 0
	}
	for _, name := range q.Select {
		if name == q.OrderBy {
			return false
		}
	}
	return true
}

// queryCols resolves a streamable query's working columns — the projection
// in Select order, or every column — with query.Apply's projection errors
// (unknown or duplicate names) reproduced.
func (m *Model) queryCols(q *query.Query) ([]int, error) {
	if len(q.Select) == 0 {
		cols := make([]int, m.T.NumCols())
		for i := range cols {
			cols[i] = i
		}
		return cols, nil
	}
	cols := make([]int, 0, len(q.Select))
	seen := make(map[int]bool, len(q.Select))
	for _, name := range q.Select {
		ci := m.T.ColumnIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("core: applying query: table %s: unknown column %q", m.T.Name, name)
		}
		if seen[ci] {
			return nil, fmt.Errorf("core: applying query: table %s: duplicate column %q", m.T.Name, name)
		}
		seen[ci] = true
		cols = append(cols, ci)
	}
	return cols, nil
}

// selectFiltered runs a selection over the rows matching a predicate
// conjunction, evaluated on the streaming code-level path. scope, when
// non-nil, is a sorted ascending row set (a drill-down neighborhood) the
// matches are intersected with; limit > 0 keeps the first limit matches
// (never combined with a scope — queries carry limits, drill-downs carry
// scopes).
func (m *Model) selectFiltered(preds []query.Predicate, limit int, scope []int, cols []int, k, l int, targets []string, sc ScaleOptions, opt exploreOpts) (*SubTable, error) {
	if src := m.ShardSource(); src != nil && !src.Complete() {
		if len(scope) > 0 {
			return nil, fmt.Errorf("core: drill-down scopes need the table's shards local")
		}
		if limit > 0 {
			return nil, fmt.Errorf("core: a row limit is not supported on tables with remote shards")
		}
		if len(preds) > 0 {
			// Predicate pushdown: each peer filters its own rows inside its
			// scan, so the matching row set never exists on the coordinator.
			opt.preds = preds
			return m.selectFromOpts(nil, cols, k, l, targets, sc, opt)
		}
		// No filter: the historical full-table coordinator path.
		rows := make([]int, m.T.NumRows())
		for i := range rows {
			rows[i] = i
		}
		return m.selectFromOpts(rows, cols, k, l, targets, sc, opt)
	}
	rows, err := m.matchingRows(preds, limit, scope)
	if err != nil {
		return nil, err
	}
	return m.selectFromOpts(rows, cols, k, l, targets, sc, opt)
}

// matchingRows evaluates the conjunction over the model's code source and
// returns the ascending matching rows, intersected with the optional
// sorted scope; limit applies only when no scope is given. With no
// predicates every row matches, so a scope is its own answer.
func (m *Model) matchingRows(preds []query.Predicate, limit int, scope []int) ([]int, error) {
	if len(preds) == 0 && scope != nil {
		return slices.Clone(scope[:sort.SearchInts(scope, m.B.Source().NumRows())]), nil
	}
	f := m.B.CompileFilter(preds)
	cells, err := m.residualCells(f)
	if err != nil {
		return nil, err
	}
	if scope == nil {
		return f.MatchingRows(m.B.Source(), 0, cells, limit)
	}
	rows, err := f.MatchingRows(m.B.Source(), 0, cells, 0)
	if err != nil {
		return nil, err
	}
	return intersectSorted(rows, scope), nil
}

// residualCells returns the cell reader a compiled filter resolves its
// bin-boundary rows with: the resident columns when present, otherwise the
// paged column store (cellSrc). Exact filters get nil — they are
// guaranteed to issue no cell reads, so husk tables without any cell
// source still filter when every predicate is cut-aligned.
func (m *Model) residualCells(f *binning.Filter) (binning.CellFn, error) {
	if f.Exact() {
		return nil, nil
	}
	if m.T.CellsResident() {
		return func(col int, rows []int) ([]string, error) {
			c := m.T.ColumnAt(col)
			out := make([]string, len(rows))
			for i, r := range rows {
				out[i] = c.CellString(r)
			}
			return out, nil
		}, nil
	}
	if m.cellSrc != nil {
		return m.cellSrc.GatherCells, nil
	}
	return nil, fmt.Errorf("core: residual predicate checks need resident cells or an attached column store")
}

// intersectSorted intersects two ascending int slices.
func intersectSorted(a, b []int) []int {
	out := make([]int, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// FilteredShardSampler is the predicate-pushdown extension of ShardSampler:
// rows/codes are exactly Sample's contract but restricted to the rows
// matching preds (each peer evaluates the conjunction shard-locally), and
// matched is the total matching row count across shards. Implementations
// live in the serving layer.
type FilteredShardSampler interface {
	ShardSampler
	SampleFiltered(cols []int, budget int, preds []query.Predicate) (rows []int, codes [][]uint16, matched int, err error)
}

// SampleShardFiltered scans one locally held shard for a scatter/gather
// sample: the worker half of the shard-exec protocol. cols, budget and seed
// come from the coordinator's request; the response's rows are global ids
// and carry their codes for every table column. A non-empty preds is a
// conjunction the worker evaluates over the shard's codes (with
// shard-local residual cell checks) before the scan, so only matching rows
// are sampled; Matched counts them (the shard's row count without preds).
func (m *Model) SampleShardFiltered(idx int, cols []int, budget int, seed int64, preds []query.Predicate) (*shard.SampleResponse, error) {
	src := m.ShardSource()
	if src == nil {
		return nil, fmt.Errorf("core: table is not shard-backed")
	}
	if idx < 0 || idx >= src.NumShards() {
		return nil, fmt.Errorf("core: shard %d out of range [0, %d)", idx, src.NumShards())
	}
	if !src.ShardAvailable(idx) {
		return nil, fmt.Errorf("core: shard %d is not held locally", idx)
	}
	if budget <= 0 {
		return nil, fmt.Errorf("core: sample budget must be positive, got %d", budget)
	}
	for _, c := range cols {
		if c < 0 || c >= m.T.NumCols() {
			return nil, fmt.Errorf("core: column %d out of range [0, %d)", c, m.T.NumCols())
		}
	}
	cs := src.ShardSource(idx)
	start := src.ShardStart(idx)
	var rows []int
	if len(preds) > 0 {
		f := m.B.CompileFilter(preds)
		cells, err := m.residualCells(f)
		if err != nil {
			return nil, err
		}
		if rows, err = f.MatchingRows(cs, start, cells, 0); err != nil {
			return nil, err
		}
		if rows == nil {
			rows = []int{} // nil would scan every row
		}
	}
	return shard.ScanRows(m.B, cs, start, cols, budget, seed, rows, true), nil
}

// ExploreSpec is the consolidated request of an exploration-session select:
// a predicate conjunction, an optional drill-down scope, the sub-table
// shape, and the session's coverage/weighting state. The zero-state spec
// (no scope, no coverage, no bias) selects exactly like
// SelectWith(&query.Query{Where: spec.Where}, ...).
type ExploreSpec struct {
	Where   []query.Predicate
	Scope   []int // sorted ascending source rows bounding the select; nil = whole table
	K, L    int
	Targets []string
	Scale   *ScaleOptions // nil uses the model's configured Options.Scale
	Covered *bitset.Set   // (column, bin) strata already shown this session
	ColBias []float64     // per-source-column score multiplier; nil = unbiased
}

// SelectExplore runs a session-scoped selection: the streaming filter
// bounds the rows, already-covered strata are deprioritized in the
// stratified reservoir, and DataPilot-style column bias weights the column
// step. Deterministic: the result is a fixed function of (model, spec).
func (m *Model) SelectExplore(spec ExploreSpec) (*SubTable, error) {
	sc := m.Opt.Scale
	if spec.Scale != nil {
		sc = *spec.Scale
	}
	cols := make([]int, m.T.NumCols())
	for i := range cols {
		cols[i] = i
	}
	opt := exploreOpts{covered: spec.Covered, colBias: spec.ColBias}
	return m.selectFiltered(spec.Where, 0, spec.Scope, cols, spec.K, spec.L, spec.Targets, sc, opt)
}

// Neighborhood computes a drill-down scope around an anchor, streamed over
// the code source (no cell materialization). col >= 0 expands a cell: the
// rows whose column-col bin equals the anchor's. col < 0 expands a row:
// the rows agreeing with the anchor's bins on at least half (rounded up)
// of viewCols — the columns of the view the anchor was selected from. The
// result is sorted ascending and includes the anchor row.
func (m *Model) Neighborhood(row, col int, viewCols []int) ([]int, error) {
	n := m.T.NumRows()
	if row < 0 || row >= n {
		return nil, fmt.Errorf("core: anchor row %d out of range [0, %d)", row, n)
	}
	src := m.B.Source()
	if ps, ok := src.(binning.PartialCodeSource); ok {
		for blk := 0; blk < src.NumBlocks(); blk++ {
			if !ps.BlockAvailable(blk) {
				return nil, fmt.Errorf("core: drill-down needs every code block local; block %d is remote", blk)
			}
		}
	}
	br := src.BlockRows()
	var scratch []uint16
	if col >= 0 {
		if col >= m.T.NumCols() {
			return nil, fmt.Errorf("core: anchor column %d out of range [0, %d)", col, m.T.NumCols())
		}
		anchor := m.B.Code(col, row)
		var out []int
		for blk := 0; blk < src.NumBlocks(); blk++ {
			codes := src.ColumnBlock(col, blk, scratch)
			scratch = codes
			off := blk * br
			for i, code := range codes {
				if code == anchor {
					out = append(out, off+i)
				}
			}
		}
		return out, nil
	}
	if len(viewCols) == 0 {
		return nil, fmt.Errorf("core: a row drill-down needs the columns of the anchor's view")
	}
	anchors := make([]uint16, len(viewCols))
	for j, c := range viewCols {
		if c < 0 || c >= m.T.NumCols() {
			return nil, fmt.Errorf("core: view column %d out of range [0, %d)", c, m.T.NumCols())
		}
		anchors[j] = m.B.Code(c, row)
	}
	needAgree := (len(viewCols) + 1) / 2
	agree := make([]int, br)
	var out []int
	for blk := 0; blk < src.NumBlocks(); blk++ {
		off := blk * br
		bn := min(br, n-off)
		for i := 0; i < bn; i++ {
			agree[i] = 0
		}
		for j, c := range viewCols {
			codes := src.ColumnBlock(c, blk, scratch)
			scratch = codes
			for i := 0; i < bn; i++ {
				if codes[i] == anchors[j] {
					agree[i]++
				}
			}
		}
		for i := 0; i < bn; i++ {
			if agree[i] >= needAgree {
				out = append(out, off+i)
			}
		}
	}
	return out, nil
}

// ViewItems returns the global (column, bin) item ids a selection
// displays — the strata a session marks covered after showing it. Sorted
// ascending, duplicate-free.
func (m *Model) ViewItems(st *SubTable) []int {
	seen := bitset.New(m.B.NumItems())
	for _, c := range st.ColIdx {
		for _, r := range st.SourceRows {
			seen.Add(int(m.B.ItemOf(c, int(m.B.Code(c, r)))))
		}
	}
	return seen.Indices()
}

// ColumnNullRates returns, per source column, the fraction of rows whose
// cell is missing — the DataPilot quality signal session weights fold into
// the column bias. Computed from the cached bin counts (no cell scan).
func (m *Model) ColumnNullRates() []float64 {
	counts := m.cachedBinCounts()
	out := make([]float64, len(counts))
	n := m.T.NumRows()
	if n == 0 {
		return out
	}
	for c := range counts {
		if mb := m.B.Cols[c].MissingBin; mb >= 0 {
			out[c] = float64(counts[c][mb]) / float64(n)
		}
	}
	return out
}

// biasedColumns is the session-weighted column step: each candidate scores
// (1 + salience) × bias, where salience is the column's strongest affinity
// to any other candidate (patternGroupColumns' measure) and bias is the
// caller's per-source-column multiplier (null-rate and view-count
// penalties). The top need columns win; ties break to the lower column
// index, so the pick is deterministic.
func (m *Model) biasedColumns(candCols []int, need int, bias []float64) []int {
	if need >= len(candCols) {
		return append([]int(nil), candCols...)
	}
	type scored struct {
		c int
		s float64
	}
	sc := make([]scored, len(candCols))
	for i, c := range candCols {
		sal := 0.0
		for j, o := range candCols {
			if j != i {
				if a := m.ColumnAffinity(c, o); a > sal {
					sal = a
				}
			}
		}
		b := 1.0
		if c < len(bias) {
			b = bias[c]
		}
		sc[i] = scored{c: c, s: (1 + sal) * b}
	}
	sort.Slice(sc, func(x, y int) bool {
		if sc[x].s != sc[y].s {
			return sc[x].s > sc[y].s
		}
		return sc[x].c < sc[y].c
	})
	out := make([]int, need)
	for i := range out {
		out[i] = sc[i].c
	}
	sort.Ints(out)
	return out
}
