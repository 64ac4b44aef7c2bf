package main

import (
	"fmt"

	"subtab/internal/binning"
	"subtab/internal/cluster"
	"subtab/internal/core"
	"subtab/internal/f32"
	"subtab/internal/query"
	"subtab/internal/shard"
)

// defaultSampleBudget is core.ScaleOptions' default candidate budget.
const defaultSampleBudget = 20000

// codePart is one code source of a replayed scan and its first global row.
type codePart struct {
	src   binning.CodeSource
	start int
}

// replaySelect replays a select's stages with the same model, columns,
// budget and seed as the program: the streamed predicate filter, the
// stratified sample scan (above the scale threshold), the tuple-vector
// gather and the row clustering. It returns the summed stage time in ms.
func replaySelect(tr *tracer, req, parent int64, m *core.Model, parts []codePart, cells binning.CellFn, preds []query.Predicate, k int, threshold int) (float64, error) {
	n := m.T.NumRows()
	cols := make([]int, m.T.NumCols())
	for i := range cols {
		cols[i] = i
	}
	var total float64

	// Filter: MatchingRows on a single store (the program's local path),
	// MatchMask per shard (its pushdown form).
	masks := make([][]bool, len(parts))
	var rows []int
	matched := n
	if len(preds) > 0 {
		sp := tr.start("binning.filter", req, parent)
		f := m.B.CompileFilter(preds)
		fn := countingCellFn(cells, tr)
		if len(parts) == 1 {
			var err error
			rows, err = f.MatchingRows(countingCodes{parts[0].src, tr}, parts[0].start, fn, 0)
			if err != nil {
				return 0, fmt.Errorf("replay filter: %w", err)
			}
			matched = len(rows)
		} else {
			matched = 0
			for i, p := range parts {
				keep, c, err := f.MatchMask(countingCodes{p.src, tr}, p.start, fn)
				if err != nil {
					return 0, fmt.Errorf("replay filter: %w", err)
				}
				masks[i], matched = keep, matched+c
			}
		}
		total += sp.end()
		tr.observe("binning.match_ratio", float64(matched)/float64(n))
	}
	if rows == nil {
		rows = keptRows(parts, masks, n)
	}

	sample := rows
	scaled := threshold > 0 && matched >= threshold
	if scaled {
		sp := tr.start("shard.scan", req, parent)
		if len(parts) == 1 && len(preds) > 0 {
			masks[0] = make([]bool, parts[0].src.NumRows())
			for _, r := range rows {
				masks[0][r] = true
			}
		}
		sums := make([]shard.Summary, len(parts))
		for i, p := range parts {
			cs := countingCodes{p.src, tr}
			if masks[i] == nil {
				sums[i] = shard.Scan(m.B, cs, p.start, cols, defaultSampleBudget, m.SampleSeed())
			} else {
				sums[i] = shard.ScanFiltered(m.B, cs, p.start, cols, defaultSampleBudget, m.SampleSeed(), masks[i])
			}
		}
		strata, cands := shard.MergeSummaries(sums, m.B.NumItems())
		sample = shard.FinishSample(strata, cands, defaultSampleBudget)
		total += sp.end()
	}

	sp := tr.start("core.vectors", req, parent)
	mat := f32.New(len(sample), m.Emb.Dim())
	for i, r := range sample {
		copy(mat.Row(i), m.RowVector(r, cols))
	}
	total += sp.end()

	if scaled {
		sp = tr.start("cluster.minibatch", req, parent)
		cluster.MiniBatchKMeans(mat, k, cluster.MiniBatchOptions{Seed: m.Opt.ClusterSeed})
	} else {
		sp = tr.start("cluster.kmeans", req, parent)
		cluster.KMeansMatrix(mat, k, cluster.Options{Seed: m.Opt.ClusterSeed})
	}
	total += sp.end()
	return total, nil
}

// keptRows lists the global rows the masks keep (every row when no
// filter ran).
func keptRows(parts []codePart, masks [][]bool, n int) []int {
	if masks[0] == nil {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	var rows []int
	for i, p := range parts {
		for r, ok := range masks[i] {
			if ok {
				rows = append(rows, p.start+r)
			}
		}
	}
	return rows
}
