// Package cluster implements k-means clustering (k-means++ seeding, Lloyd
// iterations, empty-cluster repair) and centroid-representative selection.
// It is the selection engine of Algorithm 2: row vectors and column vectors
// are clustered and the points nearest each centroid become the sub-table's
// rows and columns (the paper uses sklearn's KMeans for this).
//
// The input is a contiguous f32.Matrix (KMeansMatrix). The assignment
// step — the O(n·k·dim) bulk of every Lloyd iteration — runs across workers
// and prunes distance computations that provably cannot win, while the
// centroid-update step stays serial: its float accumulation order is part of
// the determinism contract, so results are bit-identical to the serial
// implementation at any worker count.
package cluster

import (
	"math"
	"math/rand"

	"subtab/internal/f32"
)

// Options configures k-means.
type Options struct {
	// MaxIter bounds Lloyd iterations (default 50).
	MaxIter int
	// Seed drives k-means++ initialization.
	Seed int64
	// Tolerance stops early when centroids move less than this (default 1e-4).
	Tolerance float64
	// Workers bounds the parallelism of the assignment step (default
	// GOMAXPROCS). Results are identical at any setting.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-4
	}
	return o
}

// Result holds a clustering.
type Result struct {
	K          int
	Assign     []int       // point index -> cluster
	Centers    [][]float32 // k centroids (views into one contiguous slab)
	Sizes      []int       // points per cluster
	Iterations int
}

// KMeansMatrix clusters the rows of pts into k clusters. When
// k >= pts.R every point becomes its own cluster.
func KMeansMatrix(pts f32.Matrix, k int, opt Options) *Result {
	opt = opt.withDefaults()
	n := pts.R
	if n == 0 || k <= 0 {
		return &Result{K: 0}
	}
	if k >= n {
		centers := f32.New(n, pts.C)
		copy(centers.Data, pts.Data)
		res := &Result{K: n, Assign: make([]int, n), Centers: centers.Rows(), Sizes: make([]int, n)}
		for i := 0; i < n; i++ {
			res.Assign[i] = i
			res.Sizes[i] = 1
		}
		return res
	}
	dim := pts.C
	rng := rand.New(rand.NewSource(opt.Seed))
	workers := opt.Workers
	if workers <= 0 {
		workers = f32.Workers(n)
	}

	centers := seedPlusPlus(pts, k, rng, workers)
	assign := make([]int, n)
	sizes := make([]int, k)
	next := f32.New(k, dim)
	counts := make([]int, k)

	iter := 0
	for ; iter < opt.MaxIter; iter++ {
		// Assignment step: every point's nearest center is independent, so
		// the row range fans out across workers. Each scan is seeded with
		// the point's previous center (points rarely migrate, so that bound
		// is usually the final one and every other center aborts within a
		// few components). Equivalence to the plain index-order scan: a
		// center achieving the true minimum has all prefix sums <= the
		// incumbent bound, so SqDistBounded returns its exact distance, and
		// the explicit lowest-index tie-break reproduces the serial scan's
		// first-wins behaviour even on exact float ties (duplicate rows).
		f32.ParallelRange(n, workers, func(start, end int) {
			for i := start; i < end; i++ {
				p := pts.Row(i)
				best := assign[i]
				bestD := f32.SqDist(p, centers.Row(best))
				for c := 0; c < k; c++ {
					if c == best {
						continue
					}
					d := f32.SqDistBounded(p, centers.Row(c), bestD)
					if d < bestD || (d == bestD && c < best) {
						best, bestD = c, d
					}
				}
				assign[i] = best
			}
		})
		for c := range sizes {
			sizes[c] = 0
		}
		for _, c := range assign {
			sizes[c]++
		}
		repairEmptyClusters(pts, centers, assign, sizes)
		// Update step, serial: summing points in index order is part of the
		// bit-determinism contract (float addition is not associative).
		f32.Zero(next.Data)
		for c := range counts {
			counts[c] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			f32.Add(next.Row(c), pts.Row(i))
		}
		moved := 0.0
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			f32.Scale(1/float32(counts[c]), next.Row(c))
			moved += math.Sqrt(f32.SqDist(next.Row(c), centers.Row(c)))
			copy(centers.Row(c), next.Row(c))
		}
		if moved < opt.Tolerance {
			iter++
			break
		}
	}
	for c := range sizes {
		sizes[c] = 0
	}
	for _, c := range assign {
		sizes[c]++
	}
	return &Result{K: k, Assign: assign, Centers: centers.Rows(), Sizes: sizes, Iterations: iter}
}

// repairEmptyClusters reassigns, for every empty cluster, the point farthest
// from its current center (never stealing a singleton). The scan is serial
// in index order — first-found farthest wins on exact ties — so the repair
// is deterministic and shared bit-for-bit by the exact and mini-batch paths.
func repairEmptyClusters(pts, centers f32.Matrix, assign, sizes []int) {
	n := pts.R
	for c := range sizes {
		if sizes[c] > 0 {
			continue
		}
		far, farD := -1, -1.0
		for i := 0; i < n; i++ {
			if sizes[assign[i]] <= 1 {
				continue
			}
			d := f32.SqDist(pts.Row(i), centers.Row(assign[i]))
			if d > farD {
				far, farD = i, d
			}
		}
		if far >= 0 {
			sizes[assign[far]]--
			assign[far] = c
			sizes[c] = 1
		}
	}
}

// RepresentativesMatrix returns, for each cluster, the index of the point
// nearest its centroid — the "centroid selection" of Algorithm 2. Clusters
// are ordered by descending size so that callers taking a prefix favour the
// dominant patterns; empty clusters are skipped.
// The per-cluster nearest-point scan fans out in chunks whose partial argmins
// merge in chunk order (MapReduceOrdered): within a chunk the ascending scan
// keeps the first achiever of each minimum, and the ordered strict-less merge
// keeps the earliest chunk's — so the winner is the lowest-indexed
// min-achiever, exactly as in a serial scan, at any worker count.
func (r *Result) RepresentativesMatrix(pts f32.Matrix) []int {
	if r.K == 0 {
		return nil
	}
	type partial struct {
		best  []int
		bestD []float64
	}
	best := make([]int, r.K)
	bestD := make([]float64, r.K)
	for c := range best {
		best[c] = -1
		bestD[c] = math.Inf(1)
	}
	f32.MapReduceOrdered(pts.R, f32.Workers(pts.R), func(start, end int) partial {
		p := partial{best: make([]int, r.K), bestD: make([]float64, r.K)}
		for c := range p.best {
			p.best[c] = -1
			p.bestD[c] = math.Inf(1)
		}
		for i := start; i < end; i++ {
			c := r.Assign[i]
			d := f32.SqDistBounded(pts.Row(i), r.Centers[c], p.bestD[c])
			if d < p.bestD[c] {
				p.best[c], p.bestD[c] = i, d
			}
		}
		return p
	}, func(p partial) {
		for c := range best {
			if p.best[c] >= 0 && p.bestD[c] < bestD[c] {
				best[c], bestD[c] = p.best[c], p.bestD[c]
			}
		}
	})
	// Order clusters by size (desc), stable by cluster id.
	order := make([]int, r.K)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ { // insertion sort; k is small
		for j := i; j > 0 && r.Sizes[order[j]] > r.Sizes[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	out := make([]int, 0, r.K)
	for _, c := range order {
		if best[c] >= 0 {
			out = append(out, best[c])
		}
	}
	return out
}

// seedPlusPlus picks k initial centers with the k-means++ D² weighting. The
// rng draws and the D² accumulation stay serial (their order is part of the
// determinism contract); the per-point distance refreshes fan out across
// workers with disjoint writes.
func seedPlusPlus(pts f32.Matrix, k int, rng *rand.Rand, workers int) f32.Matrix {
	n := pts.R
	centers := f32.New(k, pts.C)
	copy(centers.Row(0), pts.Row(rng.Intn(n)))
	dists := make([]float64, n)
	first := centers.Row(0)
	f32.ParallelRange(n, workers, func(start, end int) {
		for i := start; i < end; i++ {
			dists[i] = f32.SqDist(pts.Row(i), first)
		}
	})
	for m := 1; m < k; m++ {
		total := 0.0
		for _, d := range dists {
			total += d
		}
		var idx int
		if total == 0 {
			idx = rng.Intn(n) // all points identical to a center
		} else {
			target := rng.Float64() * total
			acc := 0.0
			idx = n - 1
			for i, d := range dists {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
		}
		c := centers.Row(m)
		copy(c, pts.Row(idx))
		f32.ParallelRange(n, workers, func(start, end int) {
			for i := start; i < end; i++ {
				if d := f32.SqDistBounded(pts.Row(i), c, dists[i]); d < dists[i] {
					dists[i] = d
				}
			}
		})
	}
	return centers
}
