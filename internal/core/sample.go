package core

import (
	"math"
	"slices"
	"sort"

	"subtab/internal/binning"
	"subtab/internal/f32"
	"subtab/internal/shard"
)

// stratifiedReservoir deterministically samples up to budget candidate rows
// for the scaled selection path. Strata are the (column, bin) items of the
// candidate rows over the given columns:
//
//   - Phase 1 (coverage) keeps, for every stratum that is non-empty among
//     the candidates, the row of smallest hash within the stratum — so rare
//     bins (rare categories, outlier numeric regimes) survive sampling no
//     matter how skewed the table is. When the stratum count itself exceeds
//     the budget, strata are served in ascending item-id order.
//   - Phase 2 (fill) spends the remaining budget on the rows with the
//     globally smallest hashes, which is a uniform reservoir over the
//     leftover candidates.
//
// Both phases rank rows by one seeded per-row hash (computed once — the
// per-cell work of the dominant phase-1 scan is then a uint16 read and a
// compare) rather than by sequential rng draws, so the sample is one fixed
// function of (binning, rows, cols, budget, seed) — no iteration-order or
// scheduling dependence — and any candidate subset of a table samples
// consistently. rows must be duplicate-free. The result is sorted ascending
// and duplicate-free; a candidate set no larger than the budget is returned
// whole (sorted).
func stratifiedReservoir(b *binning.Binned, rows, cols []int, budget int, seed int64) []int {
	return stratifiedReservoirBiased(b, rows, cols, budget, seed, nil)
}

// strataCount bounds the number of (column, bin) strata the sampler can see
// over cols: the sum of the columns' bin counts. When it is at most the
// budget, phase 1 serves every non-empty stratum whatever the order, so a
// coverage bias cannot change the sample.
func strataCount(b *binning.Binned, cols []int) int {
	n := 0
	for _, c := range cols {
		n += b.Cols[c].NumBins()
	}
	return n
}

// stratifiedReservoirBiased is the session-aware form: covered, when
// non-nil, marks (column, bin) item ids an exploration session has already
// shown, and phase 1 serves the uncovered strata first (each pass in
// ascending item order) — a drill-down's coverage budget goes to strata the
// user has not seen, while phase 2's uniform fill is untouched. covered ==
// nil is bit-identical to the historical sampler. The bias reorders phase 1
// only, so it changes a sample only when strataCount exceeds the budget.
func stratifiedReservoirBiased(b *binning.Binned, rows, cols []int, budget int, seed int64, covered func(item int) bool) []int {
	if budget <= 0 || len(rows) <= budget {
		out := make([]int, len(rows))
		copy(out, rows)
		sort.Ints(out)
		return out
	}

	// Shard-backed full-table scans scatter: one goroutine per shard, merged
	// associatively (package shard) — same sample, one shard-scan's worth of
	// wall clock. Query subsets fall through to the generic block cursor.
	src := b.Source()
	full := len(rows) == src.NumRows() && identityRows(rows)
	if ss, ok := src.(*shard.Source); ok && ss.Complete() && full {
		return shardedReservoir(b, ss, cols, budget, seed, covered)
	}

	rowH := make([]uint64, len(rows))
	f32.ParallelRange(len(rows), f32.Workers(len(rows)), func(start, end int) {
		for i := start; i < end; i++ {
			rowH[i] = sampleHash(seed, rows[i])
		}
	})

	// Phase 1: per-stratum min-(hash, row) representative, kept as the
	// candidate index into rows (-1: stratum empty among the candidates).
	// The stratum space is the global item-id space restricted to cols;
	// NumItems is small (columns × bins), so flat slots beat a map.
	//
	// Codes are read through the binning's CodeSource so the scan runs
	// identically over inline codes and over an on-disk store: min-hash with
	// a value-based tie-break is order-independent, so chunked block scans
	// (and the store's block geometry) cannot change the sample — the
	// property that lets the out-of-core path reproduce the in-memory
	// sample bit for bit.
	best := make([]int, b.NumItems())
	for s := range best {
		best[s] = -1
	}
	if b.HasInlineCodes() {
		// Resident codes: the strata of different columns are disjoint item
		// ranges, so the columns scan in parallel, each into its own slots.
		// A repeated column would share slots; it cannot change the minima,
		// so it is scanned once.
		seen := make([]bool, b.NumCols())
		scan := make([]int, 0, len(cols))
		for _, c := range cols {
			if !seen[c] {
				seen[c] = true
				scan = append(scan, c)
			}
		}
		f32.ParallelIndex(len(scan), f32.Workers(len(scan)), func(j int) {
			c := scan[j]
			base := int(b.ItemOf(c, 0))
			columnMinima(b.Codes[c], rows, rowH, full, best[base:base+b.Cols[c].NumBins()])
		})
	} else {
		update := func(s int32, i int, h uint64) {
			if j := best[s]; j < 0 || h < rowH[j] || (h == rowH[j] && rows[i] < rows[j]) {
				best[s] = i
			}
		}
		var scratch []uint16
		for _, c := range cols {
			base := b.ItemOf(c, 0)
			if full {
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
				continue
			}
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
				update(base+int32(codes[r-blk*br]), i, rowH[i])
			}
		}
	}
	picked := make([]bool, len(rows))
	sample := make([]int, 0, min(budget, len(best)))
	for _, wantCovered := range [2]bool{false, true} {
		if len(sample) >= budget {
			break
		}
		for s, i := range best {
			if len(sample) >= budget {
				break
			}
			if covered != nil && covered(s) != wantCovered {
				continue
			}
			if i < 0 || picked[i] {
				continue
			}
			picked[i] = true
			sample = append(sample, rows[i])
		}
		if covered == nil {
			break
		}
	}
	sort.Ints(sample)
	if rem := budget - len(sample); rem > 0 {
		return mergeSorted(sample, uniformFill(rows, rowH, picked, len(rows)-len(sample), rem))
	}
	return sample
}

// columnMinima scans one resident code column over the candidates and
// writes, per bin, the candidate index of the min-(hash, row) member into
// slots (left at -1 for bins no candidate falls in). Over the full table
// (identity rows) the row is the index and ascending, so a later row never
// wins a hash tie and the scan needs no row indirection.
func columnMinima(codes []uint16, rows []int, rowH []uint64, identity bool, slots []int) {
	type slot struct {
		h uint64
		i int
	}
	mins := make([]slot, len(slots))
	for s := range mins {
		mins[s] = slot{math.MaxUint64, -1}
	}
	if identity {
		codes = codes[:len(rowH)]
		for r, code := range codes {
			h, m := rowH[r], &mins[code]
			if h < m.h || (h == m.h && m.i < 0) {
				m.h, m.i = h, r
			}
		}
	} else {
		for i, r := range rows {
			h, m := rowH[i], &mins[codes[r]]
			if h < m.h || (h == m.h && (m.i < 0 || r < rows[m.i])) {
				m.h, m.i = h, i
			}
		}
	}
	for s, m := range mins {
		slots[s] = m.i
	}
}

// uniformFill is phase 2: the rem unpicked candidates of smallest (hash,
// row), returned in candidate order (ascending when rows is); free is the
// number of unpicked candidates. The threshold select is the one every
// sampler shares (shard.SmallestHashRows).
func uniformFill(rows []int, rowH []uint64, picked []bool, free, rem int) []int {
	sel := shard.SmallestHashRows(rem, free, math.MaxUint64, func(limit uint64, dst []shard.HashRow) []shard.HashRow {
		for i, h := range rowH {
			if h <= limit && !picked[i] {
				dst = append(dst, shard.HashRow{Hash: h, Row: int64(rows[i])})
			}
		}
		return dst
	})
	out := make([]int, len(sel))
	for j, hr := range sel {
		out[j] = int(hr.Row)
	}
	return out
}

// mergeSorted merges ascending a with b. b is sorted first when it is not
// ascending, which happens only when the candidate rows were not.
func mergeSorted(a, b []int) []int {
	if !slices.IsSorted(b) {
		slices.Sort(b)
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// sampleHash maps (seed, row) to a uniform 64-bit value. The hash lives
// in package shard (shard.RowHash) so per-shard scans — local or on a
// peer — rank rows identically to this whole-table scan.
func sampleHash(seed int64, row int) uint64 {
	return shard.RowHash(seed, int64(row))
}
