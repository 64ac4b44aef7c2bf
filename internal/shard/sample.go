package shard

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"subtab/internal/binning"
	"subtab/internal/codestore"
)

// The scatter/gather sampler protocol. core's stratified min-hash
// reservoir has two phases, and both are associative merges over
// per-row (hash, row) pairs:
//
//   - Phase 1 keeps, per (column, bin) stratum, the candidate row with
//     the smallest hash (ties to the lower row id). A per-shard minimum
//     over the shard's row range merges with other shards' minima by the
//     same comparison — min is associative and commutative, so any
//     grouping of rows into shards yields the global minima.
//   - Phase 2 fills the remaining budget with the globally smallest
//     (hash, row) pairs among rows phase 1 did not pick. A shard cannot
//     know the global picked set, so it reports its budget smallest pairs
//     unfiltered. That is always enough: a row among the global
//     rem-smallest unpicked has fewer than picked + rem <= budget
//     shard-local rows ahead of it in (hash, row) order, so it sits
//     within its shard's top budget.
//
// ScanRows produces the per-shard Summary in one pass over the shard,
// MergeStrata folds phase-1 minima, and FinishSample replays core's exact
// pick order over the merged state — byte-identical to a single
// full-table scan, which the property sweep in core and the golden
// never-recording tests pin.

// StratumMin is the phase-1 state of one stratum: the minimal (hash, row)
// pair seen, or Row == -1 when the stratum is empty so far.
type StratumMin struct {
	Row  int64
	Hash uint64
}

// HashRow is one phase-2 candidate: a (hash, row) pair ordered
// lexicographically.
type HashRow struct {
	Hash uint64
	Row  int64
}

// Summary is one shard's contribution to a scatter/gather sample. Strata
// is indexed by global item id; Cand holds the shard's budget smallest
// (hash, row) pairs in ascending row order. Rows are global ids throughout.
type Summary struct {
	Strata []StratumMin
	Cand   []HashRow
}

// RowHash maps (seed, global row) to a uniform 64-bit rank with a
// splitmix64-style finalizer. It is the one hash both sampler phases rank
// rows by — core.sampleHash delegates here, so shard-local scans and
// whole-table scans are rank-identical by construction.
func RowHash(seed int64, row int64) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(row)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// EmptyStrata returns the identity element of the strata merge: numItems
// empty minima.
func EmptyStrata(numItems int) []StratumMin {
	strata := make([]StratumMin, numItems)
	for i := range strata {
		strata[i].Row = -1
	}
	return strata
}

// Scan computes one shard's Summary: cs holds the shard's rows (local ids
// 0..NumRows-1, global ids offset by start), b supplies the item-id space
// (stratum s of column c's code v is b.ItemOf(c, 0)+v), and budget bounds
// the phase-2 candidate list.
func Scan(b *binning.Binned, cs binning.CodeSource, start int, cols []int, budget int, seed int64) Summary {
	return ScanRows(b, cs, start, cols, budget, seed, nil, false).Summary
}

// ScanFiltered is Scan restricted to the rows whose local-id entry in keep
// is true (keep == nil keeps every row). Rows filtered out contribute to
// neither phase, so the merged result equals a single-store scan over just
// the matching rows: both sampler phases are per-row min/top-k reductions,
// and dropping a row from every shard's reduction is the same as dropping
// it from the global one.
func ScanFiltered(b *binning.Binned, cs binning.CodeSource, start int, cols []int, budget int, seed int64, keep []bool) Summary {
	var rows []int
	if keep != nil {
		rows = make([]int, 0, len(keep))
		for i, k := range keep {
			if k {
				rows = append(rows, start+i)
			}
		}
	}
	return ScanRows(b, cs, start, cols, budget, seed, rows, false).Summary
}

// ScanRows is the one shard scan behind Scan, ScanFiltered and the
// shard-exec worker. rows lists the global rows to sample from, strictly
// ascending and inside [start, start+cs.NumRows()); nil samples every row.
// The response's Matched is the number of rows sampled from.
//
// Phase 2 depends only on the hashes, so the candidate list is fixed
// first, by a threshold select over the rows' hashes. One pass per column
// then finds the column's stratum minima and, with withCodes, copies the
// candidates' codes out of the same decoded blocks — for every table
// column, not only cols, since the coordinator finishes the selection from
// them. Stratum minima that are not candidates are read cell by cell
// afterwards; there are at most as many as strata. Without withCodes the
// response's Rows and Codes are nil.
func ScanRows(b *binning.Binned, cs binning.CodeSource, start int, cols []int, budget int, seed int64, rows []int, withCodes bool) *SampleResponse {
	resp := &SampleResponse{Summary: Summary{Strata: EmptyStrata(b.NumItems())}}
	n, nCols := 0, b.NumCols()
	if cs != nil {
		n = cs.NumRows()
	}
	if withCodes {
		resp.Rows = []int64{}
		resp.Codes = make([][]uint16, nCols)
		for c := range resp.Codes {
			resp.Codes[c] = []uint16{}
		}
	}
	full := rows == nil
	matched := len(rows)
	if full {
		matched = n
	}
	resp.Matched = matched
	if matched == 0 {
		return resp
	}

	// hs[j] is the hash of the j-th sampled row: local row j of a full
	// scan, rows[j] otherwise.
	hs := make([]uint64, matched)
	rowOf := func(j int) int64 { return int64(start + j) }
	if !full {
		rowOf = func(j int) int64 { return int64(rows[j]) }
	}
	for j := range hs {
		hs[j] = RowHash(seed, rowOf(j))
	}
	cand := SmallestHashRows(min(budget, matched), matched, math.MaxUint64, func(limit uint64, dst []HashRow) []HashRow {
		for j, h := range hs {
			if h <= limit {
				dst = append(dst, HashRow{Hash: h, Row: rowOf(j)})
			}
		}
		return dst
	})
	resp.Summary.Cand = cand

	// The column pass walks local row positions: loc[j] for the j-th
	// sampled row (nil for a full scan, where it is j), cloc[k] for the k-th
	// candidate whose codes are captured.
	var loc, cloc []int32
	if !full {
		loc = make([]int32, len(rows))
		for j, r := range rows {
			loc[j] = int32(r - start)
		}
	}
	var candCodes [][]uint16
	var backing []uint16
	if withCodes {
		cloc = make([]int32, len(cand))
		for k, hr := range cand {
			cloc[k] = int32(int(hr.Row) - start)
		}
		candCodes = make([][]uint16, nCols)
		backing = make([]uint16, nCols*len(cand))
	}
	scan := make([]bool, nCols)
	for _, c := range cols {
		scan[c] = true
	}
	br := cs.BlockRows()
	store, _ := cs.(*codestore.Store)
	var scratch []uint16
	var mins []slot
	for c := 0; c < nCols; c++ {
		if !scan[c] && !withCodes {
			continue
		}
		if scan[c] {
			mins = resetSlots(mins, b.Cols[c].NumBins())
		}
		var capture []uint16
		if withCodes {
			capture = backing[c*len(cand) : (c+1)*len(cand) : (c+1)*len(cand)]
			candCodes[c] = capture
		}
		j, k := 0, 0 // cursors into loc and cloc
		for blk := 0; blk < cs.NumBlocks(); blk++ {
			off := blk * br
			end := min(off+br, n)
			jEnd, kEnd := j, k
			for jEnd < len(loc) && int(loc[jEnd]) < end {
				jEnd++
			}
			for kEnd < len(cloc) && int(cloc[kEnd]) < end {
				kEnd++
			}
			needScan := scan[c] && (full || jEnd > j)
			if !needScan && kEnd == k {
				continue
			}
			// A block the pass reads only some rows of is decoded at just
			// those rows when the store lends its encoded bytes; the
			// candidates are a subset of the sampled rows.
			var codes []uint16
			var enc []byte
			if store != nil && !(full && needScan) {
				enc = store.RawColumnBlock(c, blk)
			}
			if enc != nil {
				if cap(scratch) < end-off {
					scratch = make([]uint16, end-off)
				}
				codes = scratch[:end-off]
				need := cloc[k:kEnd]
				if needScan {
					need = loc[j:jEnd]
				}
				for _, p := range need {
					i := int(p) - off
					codes[i] = uint16(enc[2*i]) | uint16(enc[2*i+1])<<8
				}
			} else {
				codes = cs.ColumnBlock(c, blk, scratch)
				scratch = codes
			}
			if needScan && full {
				bh := hs[off : off+len(codes)]
				for i, code := range codes {
					h, m := bh[i], &mins[code]
					if h < m.h || (h == m.h && m.i < 0) {
						m.h, m.i = h, off+i
					}
				}
			} else if needScan {
				for ; j < jEnd; j++ {
					h, m := hs[j], &mins[codes[int(loc[j])-off]]
					if h < m.h || (h == m.h && m.i < 0) {
						m.h, m.i = h, j
					}
				}
			}
			j = jEnd
			for ; k < kEnd; k++ {
				capture[k] = codes[int(cloc[k])-off]
			}
		}
		if scan[c] {
			base := int(b.ItemOf(c, 0))
			for s, m := range mins {
				if m.i >= 0 {
					resp.Summary.Strata[base+s] = StratumMin{Row: rowOf(m.i), Hash: m.h}
				}
			}
		}
	}
	if !withCodes {
		return resp
	}

	resp.Rows = resp.Summary.CandidateRows()
	resp.Codes = mergeMinimaCodes(resp.Rows, cand, candCodes, cs, start)
	return resp
}

// mergeMinimaCodes lays the candidates' captured codes out along rows (the
// candidates merged with the stratum minima), reading the few minima that
// are no candidate cell by cell from cs. The candidates' codes are copied
// in runs between those cells; with none, they are used as they are.
func mergeMinimaCodes(rows []int64, cand []HashRow, candCodes [][]uint16, cs binning.CodeSource, start int) [][]uint16 {
	var extra []int // positions in rows of the minima that are no candidate
	if len(rows) > len(cand) {
		k := 0
		for u, r := range rows {
			if k < len(cand) && cand[k].Row == r {
				k++
			} else {
				extra = append(extra, u)
			}
		}
	}
	if len(extra) == 0 {
		return candCodes
	}
	codes := make([][]uint16, len(candCodes))
	for c, from := range candCodes {
		out := make([]uint16, len(rows))
		u, k := 0, 0
		for _, e := range extra {
			k += copy(out[u:e], from[k:])
			out[e] = cs.Code(c, int(rows[e])-start)
			u = e + 1
		}
		copy(out[u:], from[k:])
		codes[c] = out
	}
	return codes
}

// slot is one stratum's running minimum inside a column pass: the hash
// and the position of the row holding it (-1: no row yet).
type slot struct {
	h uint64
	i int
}

// resetSlots returns n empty slots, reusing buf.
func resetSlots(buf []slot, n int) []slot {
	if cap(buf) < n {
		buf = make([]slot, n)
	}
	buf = buf[:n]
	for s := range buf {
		buf[s] = slot{math.MaxUint64, -1}
	}
	return buf
}

// SmallestHashRows is the phase-2 threshold select shared by every
// sampler: it returns the rem smallest (Hash, Row) pairs among free
// candidates, in the order collect gathers them. collect(limit, dst) must
// append to dst, in one fixed order, every candidate whose hash is at most
// limit, and return it; span bounds the candidates' hashes. Hashes are
// uniform below span, so a limit sized to admit slightly more than rem of
// the free candidates collects a superset of the answer in one pass; when
// fewer than rem fall under it, collect runs again with no limit. Either
// way the rem smallest of the collected pairs are exactly the rem smallest
// overall. rem must not exceed free.
func SmallestHashRows(rem, free int, span uint64, collect func(limit uint64, dst []HashRow) []HashRow) []HashRow {
	if rem <= 0 {
		return nil
	}
	limit := uint64(math.MaxUint64)
	if want := rem + rem/8 + 64; want < free {
		limit = uint64(float64(want) / float64(free) * float64(span))
	}
	coll := collect(limit, make([]HashRow, 0, min(free, rem+rem/4+128)))
	if len(coll) < rem && limit != math.MaxUint64 {
		coll = collect(math.MaxUint64, coll[:0])
	}
	if len(coll) <= rem {
		return coll
	}

	// The cut is the rem-th smallest (hash, row): every collected pair
	// below the cut hash is in, and of the pairs at the cut hash the lowest
	// rows are.
	hs := make([]uint64, len(coll))
	for j, hr := range coll {
		hs[j] = hr.Hash
	}
	cutH := nthSmallest(hs, rem-1)
	atCut := rem
	var tied []int64
	for _, hr := range coll {
		if hr.Hash < cutH {
			atCut--
		} else if hr.Hash == cutH {
			tied = append(tied, hr.Row)
		}
	}
	slices.Sort(tied)
	cutRow := tied[atCut-1]
	out := coll[:0]
	for _, hr := range coll {
		if hr.Hash < cutH || (hr.Hash == cutH && hr.Row <= cutRow) {
			out = append(out, hr)
		}
	}
	return out
}

// nthSmallest returns the k-th smallest (0-based) value of hs, reordering
// hs: quickselect with a three-way partition, so runs of equal values
// shrink the range instead of stalling it.
func nthSmallest(hs []uint64, k int) uint64 {
	for len(hs) > 16 {
		p := hs[len(hs)/2]
		lt, i, gt := 0, 0, len(hs)
		for i < gt {
			switch h := hs[i]; {
			case h < p:
				hs[lt], hs[i] = h, hs[lt]
				lt++
				i++
			case h > p:
				gt--
				hs[i], hs[gt] = hs[gt], h
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hs = hs[:lt]
		case k >= gt:
			hs, k = hs[gt:], k-gt
		default:
			return p
		}
	}
	slices.Sort(hs)
	return hs[k]
}

// MergeStrata folds src's phase-1 minima into dst element-wise with the
// sampler's (hash, row) comparison. The merge is associative and
// commutative, so shard order cannot change the result.
func MergeStrata(dst, src []StratumMin) {
	for s := range dst {
		o := src[s]
		if o.Row < 0 {
			continue
		}
		if dst[s].Row < 0 || o.Hash < dst[s].Hash || (o.Hash == dst[s].Hash && o.Row < dst[s].Row) {
			dst[s] = o
		}
	}
}

// MergeSummaries folds per-shard summaries (zero-value entries — skipped
// shards — are ignored) into one merged strata array plus the
// concatenated candidate list, ready for FinishSample. Summaries given in
// shard order concatenate to candidates in ascending row order.
func MergeSummaries(sums []Summary, numItems int) ([]StratumMin, []HashRow) {
	strata := EmptyStrata(numItems)
	n := 0
	for _, sum := range sums {
		n += len(sum.Cand)
	}
	cands := make([]HashRow, 0, n)
	for _, sum := range sums {
		if sum.Strata == nil {
			continue
		}
		MergeStrata(strata, sum.Strata)
		cands = append(cands, sum.Cand...)
	}
	return strata, cands
}

// CandidateRows returns the sorted, duplicate-free global rows a summary
// references (stratum minima plus phase-2 candidates) — the rows whose
// codes a shard ships back so the coordinator can finish the selection
// without another round trip. Cand must be in ascending row order.
func (s Summary) CandidateRows() []int64 {
	minima := make([]int64, 0, len(s.Strata))
	for _, sm := range s.Strata {
		if sm.Row >= 0 {
			minima = append(minima, sm.Row)
		}
	}
	slices.Sort(minima)
	minima = slices.Compact(minima)
	out := make([]int64, 0, len(minima)+len(s.Cand))
	i := 0
	for _, hr := range s.Cand {
		for ; i < len(minima) && minima[i] < hr.Row; i++ {
			out = append(out, minima[i])
		}
		if i < len(minima) && minima[i] == hr.Row {
			i++
		}
		out = append(out, hr.Row)
	}
	return append(out, minima[i:]...)
}

// FinishSample replays core's pick order over merged scatter state:
// phase 1 serves strata in ascending item order (skipping empties and
// rows already picked) up to budget, then phase 2 spends the remainder on
// the smallest unpicked (hash, row) candidates. The result is sorted
// ascending — byte-identical to the single-scan sampler's output.
func FinishSample(strata []StratumMin, cands []HashRow, budget int) []int {
	return FinishSampleBiased(strata, cands, budget, nil)
}

// FinishSampleBiased is FinishSample with session coverage bias: phase 1
// serves the strata whose item id covered reports false first (ascending),
// then the already-covered strata (ascending), so a drill-down's budget
// prefers rows representing strata the session has not yet shown. covered
// == nil restores the unbiased order exactly.
//
// The picked set holds phase 1's rows only, so it is sized to the strata,
// not to the budget; phase 2 is the threshold select of SmallestHashRows
// over the unpicked candidates.
func FinishSampleBiased(strata []StratumMin, cands []HashRow, budget int, covered func(item int) bool) []int {
	seen := make(map[int64]struct{}, min(budget, len(strata)))
	picked := make([]int64, 0, min(budget, len(strata)))
	for _, wantCovered := range [2]bool{false, true} {
		if len(picked) >= budget {
			break
		}
		for s := range strata {
			if len(picked) >= budget {
				break
			}
			if covered != nil && covered(s) != wantCovered {
				continue
			}
			r := strata[s].Row
			if r < 0 {
				continue
			}
			if _, dup := seen[r]; dup {
				continue
			}
			seen[r] = struct{}{}
			picked = append(picked, r)
		}
		if covered == nil {
			break
		}
	}
	slices.Sort(picked)
	var fill []HashRow
	if rem := budget - len(picked); rem > 0 && len(cands) > 0 {
		var span uint64
		for _, hr := range cands {
			span = max(span, hr.Hash)
		}
		isPicked := func(r int64) bool { _, ok := slices.BinarySearch(picked, r); return ok }
		fill = SmallestHashRows(min(rem, len(cands)), len(cands), span, func(limit uint64, dst []HashRow) []HashRow {
			for _, hr := range cands {
				if hr.Hash <= limit && !isPicked(hr.Row) {
					dst = append(dst, hr)
				}
			}
			return dst
		})
		byRow := func(a, b HashRow) int { return cmp.Compare(a.Row, b.Row) }
		if !slices.IsSortedFunc(fill, byRow) {
			slices.SortFunc(fill, byRow)
		}
	}
	sample := make([]int, 0, len(picked)+len(fill))
	i := 0
	for _, hr := range fill {
		for ; i < len(picked) && picked[i] < hr.Row; i++ {
			sample = append(sample, int(picked[i]))
		}
		sample = append(sample, int(hr.Row))
	}
	for _, r := range picked[i:] {
		sample = append(sample, int(r))
	}
	return sample
}

// SampleCodes copies the codes of a finished sample out of the per-shard
// responses that produced it: codes[c][k] is column c's code of rows[k].
// rows must be ascending and parts in shard order, so one merge walk finds
// every row; a sampled row no response carries is an error.
func SampleCodes(rows []int, parts []*SampleResponse, nCols int) ([][]uint16, error) {
	// The sampled rows of one part are a contiguous run of rows; ks[i] is
	// rows[i]'s index in its part's Rows.
	type run struct {
		part   *SampleResponse
		lo, hi int
	}
	var runs []run
	ks := make([]int32, len(rows))
	p, k := 0, 0
	for i, r := range rows {
		for p < len(parts) && (k >= len(parts[p].Rows) || parts[p].Rows[k] < int64(r)) {
			if k < len(parts[p].Rows) {
				k++
			} else {
				p, k = p+1, 0
			}
		}
		if p == len(parts) || parts[p].Rows[k] != int64(r) {
			return nil, fmt.Errorf("shard: sampled row %d is in no shard response", r)
		}
		if len(runs) == 0 || runs[len(runs)-1].part != parts[p] {
			runs = append(runs, run{part: parts[p], lo: i})
		}
		runs[len(runs)-1].hi = i + 1
		ks[i] = int32(k)
	}
	codes := make([][]uint16, nCols)
	for c := range codes {
		col := make([]uint16, len(rows))
		for _, rn := range runs {
			src := rn.part.Codes[c]
			for i, k := range ks[rn.lo:rn.hi] {
				col[rn.lo+i] = src[k]
			}
		}
		codes[c] = col
	}
	return codes, nil
}
