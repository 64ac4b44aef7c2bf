package core

import (
	"sync"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/bitset"
	"subtab/internal/cluster"
	"subtab/internal/corpus"
	"subtab/internal/datagen"
	"subtab/internal/f32"
	"subtab/internal/query"
	"subtab/internal/word2vec"
)

// The select-stage benchmarks share one 200k-row Flights model at dim 8,
// built once: the size and embedding of a served exploration table.
const benchRows = 200_000

var (
	benchOnce  sync.Once
	benchModel *Model
	benchErr   error
)

func selectBenchModel(b *testing.B) *Model {
	b.Helper()
	benchOnce.Do(func() {
		ds := datagen.Flights(benchRows, 1)
		benchModel, benchErr = Preprocess(ds.T, Options{
			Bins:        binning.Options{MaxBins: 5, Strategy: binning.KDEValleys, Seed: 1},
			Corpus:      corpus.Options{MaxSentences: 100_000, TupleSentences: true, Seed: 1},
			Embedding:   word2vec.Options{Dim: 8, Epochs: 1, Seed: 1},
			ClusterSeed: 1,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchModel
}

// benchPreds returns a DISTANCE predicate: cut-aligned (decided from codes
// alone) or falling inside a bin (its boundary rows need residual checks).
func benchPreds(m *Model, aligned bool) []query.Predicate {
	c := m.T.ColumnIndex("DISTANCE")
	cuts := m.B.Cols[c].Cuts
	x := cuts[len(cuts)/2]
	if !aligned {
		x = (cuts[len(cuts)/2-1] + x) / 2
	}
	return []query.Predicate{{Col: "DISTANCE", Op: query.Leq, Num: x}}
}

func BenchmarkStratifiedReservoir(b *testing.B) {
	m := selectBenchModel(b)
	cols := allCols(m.B)
	seed := m.Opt.ClusterSeed ^ scaleSampleSeed
	filtered, err := m.matchingRows(benchPreds(m, false), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	// A session that has seen the strata of a few columns.
	covered := bitset.New(m.B.NumItems())
	for _, c := range cols[:4] {
		for bin := 0; bin < m.B.Cols[c].NumBins(); bin++ {
			covered.Add(int(m.B.ItemOf(c, bin)))
		}
	}
	for _, bc := range []struct {
		name    string
		rows    []int
		covered func(int) bool
	}{
		{"full", identity(benchRows), nil},
		{"filtered", filtered, nil},
		{"biased", identity(benchRows), covered.Contains},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				stratifiedReservoirBiased(m.B, bc.rows, cols, 20_000, seed, bc.covered)
			}
		})
	}
}

func BenchmarkDiverseRepresentatives(b *testing.B) {
	m := selectBenchModel(b)
	cols := allCols(m.B)
	full := m.fullRowVectors()
	for _, bc := range []struct {
		name   string
		rows   []int
		sample bool
	}{
		{"exact50k", identity(benchRows)[:50_000], false},
		{"sample20k", m.sampleCandidates(identity(benchRows), cols, 20_000), true},
	} {
		vecs := f32.New(len(bc.rows), m.Emb.Dim())
		f32.GatherRows(vecs, full, bc.rows)
		var res *cluster.Result
		if bc.sample {
			sc := ScaleOptions{}.withDefaults()
			res = cluster.MiniBatchKMeans(vecs, 10, cluster.MiniBatchOptions{BatchSize: sc.BatchSize, MaxIter: sc.MaxIter, Seed: m.Opt.ClusterSeed})
		} else {
			res = cluster.KMeansMatrix(vecs, 10, cluster.Options{Seed: m.Opt.ClusterSeed})
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				m.diverseRepresentatives(res, vecs, bc.rows, cols, 16, nil)
			}
		})
	}
}

func BenchmarkMatchingRows(b *testing.B) {
	m := selectBenchModel(b)
	for _, bc := range []struct {
		name    string
		aligned bool
	}{{"aligned", true}, {"residual", false}} {
		preds := benchPreds(m, bc.aligned)
		if m.B.CompileFilter(preds).Exact() != bc.aligned {
			b.Fatalf("%s: predicate %v has the wrong residual class", bc.name, preds)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := m.matchingRows(preds, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
