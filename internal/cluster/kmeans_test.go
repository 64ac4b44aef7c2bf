package cluster

import (
	"math"
	"math/rand"
	"testing"

	"subtab/internal/f32"
)

// matBlobs generates k well-separated Gaussian blobs of nPer points each,
// packed into one flat matrix, with each point's true blob label.
func matBlobs(nPer, k, dim int, seed int64) (f32.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	pts := f32.New(nPer*k, dim)
	labels := make([]int, 0, nPer*k)
	for c := 0; c < k; c++ {
		for i := 0; i < nPer; i++ {
			p := pts.Row(len(labels))
			for d := range p {
				p[d] = float32(10*float64(c) + rng.NormFloat64()*0.5)
			}
			labels = append(labels, c)
		}
	}
	return pts, labels
}

// inertia returns the total within-cluster squared distance — the k-means
// objective.
func inertia(r *Result, pts f32.Matrix) float64 {
	s := 0.0
	for i := 0; i < pts.R; i++ {
		s += f32.SqDist(pts.Row(i), r.Centers[r.Assign[i]])
	}
	return s
}

func TestKMeansEmpty(t *testing.T) {
	res := KMeansMatrix(f32.Matrix{}, 3, Options{Seed: 1})
	if res.K != 0 {
		t.Fatalf("K = %d", res.K)
	}
	if res.RepresentativesMatrix(f32.Matrix{}) != nil {
		t.Fatal("representatives of empty should be nil")
	}
}

func TestKMeansKZero(t *testing.T) {
	pts, _ := matBlobs(5, 2, 2, 1)
	res := KMeansMatrix(pts, 0, Options{Seed: 1})
	if res.K != 0 {
		t.Fatalf("K = %d", res.K)
	}
}

func TestKMeansKGreaterThanN(t *testing.T) {
	pts, _ := matBlobs(2, 2, 2, 2) // 4 points
	res := KMeansMatrix(pts, 10, Options{Seed: 1})
	if res.K != 4 {
		t.Fatalf("K = %d, want 4", res.K)
	}
	for i, c := range res.Assign {
		if c != i {
			t.Fatalf("assign = %v", res.Assign)
		}
	}
	reps := res.RepresentativesMatrix(pts)
	if len(reps) != 4 {
		t.Fatalf("reps = %v", reps)
	}
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	pts, labels := matBlobs(50, 3, 4, 3)
	res := KMeansMatrix(pts, 3, Options{Seed: 7})
	// Every true blob must map to exactly one cluster.
	blobToCluster := map[int]int{}
	for i, lbl := range labels {
		c := res.Assign[i]
		if prev, ok := blobToCluster[lbl]; ok {
			if prev != c {
				t.Fatalf("blob %d split across clusters %d and %d", lbl, prev, c)
			}
		} else {
			blobToCluster[lbl] = c
		}
	}
	if len(blobToCluster) != 3 {
		t.Fatalf("blob-cluster map = %v", blobToCluster)
	}
}

func TestAssignmentsAreNearest(t *testing.T) {
	pts, _ := matBlobs(30, 3, 3, 5)
	res := KMeansMatrix(pts, 3, Options{Seed: 5})
	for i := 0; i < pts.R; i++ {
		p := pts.Row(i)
		assigned := f32.SqDist(p, res.Centers[res.Assign[i]])
		for c := range res.Centers {
			if d := f32.SqDist(p, res.Centers[c]); d < assigned-1e-9 {
				t.Fatalf("point %d assigned to %d (d=%v) but %d is closer (d=%v)", i, res.Assign[i], assigned, c, d)
			}
		}
	}
}

func TestSizesConsistent(t *testing.T) {
	pts, _ := matBlobs(40, 2, 2, 6)
	res := KMeansMatrix(pts, 2, Options{Seed: 6})
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != pts.R {
		t.Fatalf("sizes sum %d != n %d", total, pts.R)
	}
	counts := make([]int, res.K)
	for _, c := range res.Assign {
		counts[c]++
	}
	for c := range counts {
		if counts[c] != res.Sizes[c] {
			t.Fatalf("sizes = %v, recount = %v", res.Sizes, counts)
		}
	}
}

func TestRepresentativesAreClusterMembers(t *testing.T) {
	pts, _ := matBlobs(25, 4, 3, 8)
	res := KMeansMatrix(pts, 4, Options{Seed: 8})
	reps := res.RepresentativesMatrix(pts)
	if len(reps) != 4 {
		t.Fatalf("reps = %v", reps)
	}
	seen := map[int]bool{}
	for _, r := range reps {
		if r < 0 || r >= pts.R {
			t.Fatalf("rep %d out of range", r)
		}
		if seen[r] {
			t.Fatalf("duplicate representative %d", r)
		}
		seen[r] = true
	}
	// Ordered by descending cluster size.
	for i := 1; i < len(reps); i++ {
		si := res.Sizes[res.Assign[reps[i-1]]]
		sj := res.Sizes[res.Assign[reps[i]]]
		if si < sj {
			t.Fatalf("representatives not size-ordered: %d < %d", si, sj)
		}
	}
}

func TestRepresentativeIsNearestToCenter(t *testing.T) {
	pts, _ := matBlobs(30, 2, 2, 9)
	res := KMeansMatrix(pts, 2, Options{Seed: 9})
	reps := res.RepresentativesMatrix(pts)
	for _, rep := range reps {
		c := res.Assign[rep]
		repD := f32.SqDist(pts.Row(rep), res.Centers[c])
		for i := 0; i < pts.R; i++ {
			if res.Assign[i] == c && f32.SqDist(pts.Row(i), res.Centers[c]) < repD-1e-9 {
				t.Fatalf("rep %d not nearest to center %d (point %d closer)", rep, c, i)
			}
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	pts, _ := matBlobs(40, 3, 3, 10)
	a := KMeansMatrix(pts, 3, Options{Seed: 42})
	b := KMeansMatrix(pts, 3, Options{Seed: 42})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed must give same clustering")
		}
	}
}

func TestIdenticalPoints(t *testing.T) {
	pts := f32.New(10, 2)
	for i := range pts.Data {
		pts.Data[i] = 1
	}
	res := KMeansMatrix(pts, 3, Options{Seed: 11})
	if res.K != 3 {
		t.Fatalf("K = %d", res.K)
	}
	if in := inertia(res, pts); in != 0 {
		t.Fatalf("inertia = %v", in)
	}
	reps := res.RepresentativesMatrix(pts)
	if len(reps) == 0 {
		t.Fatal("expected representatives")
	}
}

func TestInertiaDecreasesWithK(t *testing.T) {
	pts, _ := matBlobs(30, 4, 3, 12)
	i1 := inertia(KMeansMatrix(pts, 1, Options{Seed: 12}), pts)
	i4 := inertia(KMeansMatrix(pts, 4, Options{Seed: 12}), pts)
	if i4 >= i1 {
		t.Fatalf("inertia k=4 (%v) should be < k=1 (%v)", i4, i1)
	}
	if i4 < 0 || math.IsNaN(i4) {
		t.Fatalf("inertia = %v", i4)
	}
}

func TestEmptyClusterRepair(t *testing.T) {
	// Two far blobs, k=3: one cluster would go empty without repair.
	pts, _ := matBlobs(20, 2, 2, 13)
	res := KMeansMatrix(pts, 3, Options{Seed: 13})
	for c, s := range res.Sizes {
		if s == 0 {
			t.Fatalf("cluster %d empty: sizes %v", c, res.Sizes)
		}
	}
}

func TestConvergesWithinMaxIter(t *testing.T) {
	pts, _ := matBlobs(100, 3, 8, 14)
	res := KMeansMatrix(pts, 3, Options{Seed: 14, MaxIter: 100})
	if res.Iterations >= 100 {
		t.Fatalf("did not converge: %d iterations", res.Iterations)
	}
}
