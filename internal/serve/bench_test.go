package serve

import (
	"math"
	"net/http/httptest"
	"os"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/core"
	"subtab/internal/corpus"
	"subtab/internal/datagen"
	"subtab/internal/modelio"
	"subtab/internal/query"
	"subtab/internal/rules"
	"subtab/internal/word2vec"
)

func rulesOptionsForTest() rules.Options { return rules.Options{} }

func rulesOptions(targets []string) rules.Options { return rules.Options{TargetCols: targets} }

func truncateFile(path string, n int64) error {
	return os.Truncate(path, n)
}

// The benchmarks quantify what the serving layer buys: a warm-cache Select
// versus paying cold Preprocess per request, with disk restore in between.
//
//	BenchmarkColdPreprocess  — no serving layer: every request re-trains
//	BenchmarkDiskLoadSelect  — restart path: load persisted model, select
//	BenchmarkWarmSelect      — steady state: cached model, select only

func benchTable() (*core.Model, error) {
	return core.Preprocess(testTable("bench", 2000, 17), testOptions())
}

func BenchmarkColdPreprocess(b *testing.B) {
	t := testTable("bench", 2000, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.Preprocess(t, testOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Select(10, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiskLoadSelect(b *testing.B) {
	m, err := benchTable()
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/bench.subtab"
	if err := modelio.SaveFile(path, m); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, err := modelio.LoadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := loaded.Select(10, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarmSelect(b *testing.B) {
	svc := NewService(NewStore(StoreOptions{}), testOptions())
	if _, err := svc.AddTable("bench", testTable("bench", 2000, 17), nil, false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Select("bench", nil, 10, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarmSelectParallel(b *testing.B) {
	svc := NewService(NewStore(StoreOptions{}), testOptions())
	if _, err := svc.AddTable("bench", testTable("bench", 2000, 17), nil, false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := svc.Select("bench", nil, 10, 3, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoordinatorSampleFiltered is the coordinator's scatter/gather
// round for a pushed-down filter: a 200k-row Flights table in 4 shards, two
// of them behind a loopback worker, a predicate matching about a quarter of
// the rows, the default sample budget. Each iteration drops the sample
// cache first, so every round scans, fetches, validates, merges and builds
// the overlay.
func BenchmarkCoordinatorSampleFiltered(b *testing.B) {
	const name = "fl"
	tbl := datagen.Flights(200_000, 1).T
	opt := core.Options{
		Bins:        binning.Options{MaxBins: 5, Strategy: binning.KDEValleys, Seed: 1},
		Corpus:      corpus.Options{MaxSentences: 100_000, TupleSentences: true, Seed: 1},
		Embedding:   word2vec.Options{Dim: 8, Epochs: 1, Seed: 1},
		ClusterSeed: 1,
	}
	// The predicate is a bin cut (decided from codes alone, so no residual
	// cells), the numeric cut whose share of rows is closest to a quarter.
	// It is chosen before the sharded build pages the table's cells out.
	bins, err := binning.Bin(tbl, opt.Bins)
	if err != nil {
		b.Fatal(err)
	}
	var pred query.Predicate
	best := 2.0
	for c := 0; c < tbl.NumCols(); c++ {
		col := tbl.ColumnAt(c)
		if col.Nums == nil {
			continue
		}
		for _, cut := range bins.Cols[c].Cuts {
			n := 0
			for _, v := range col.Nums {
				if v <= cut {
					n++
				}
			}
			if d := math.Abs(float64(n)/float64(len(col.Nums)) - 0.25); d < best {
				best, pred = d, query.Predicate{Col: col.Name, Op: query.Leq, Num: cut}
			}
		}
	}
	coordDir, workerDir := splitTableDirs(b, name, tbl, opt, 4, []int{2, 3})
	worker := NewService(NewStore(StoreOptions{Dir: workerDir, AllowMissingShards: true}), opt)
	srv := httptest.NewServer(NewHandler(worker, nil))
	b.Cleanup(srv.Close)
	coord := NewService(NewStore(StoreOptions{Dir: coordDir, AllowMissingShards: true}), opt)
	m, err := coord.Model(name)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := NewShardSampler(name, m, ShardPeersOptions{Peers: []string{srv.URL}})
	if err != nil {
		b.Fatal(err)
	}
	s := cs.(*shardSampler)
	cols := make([]int, m.T.NumCols())
	for c := range cols {
		cols[c] = c
	}

	preds := []query.Predicate{pred}
	var matched int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ReleaseCache()
		if _, _, matched, err = s.SampleFiltered(cols, 20_000, preds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(matched)/float64(tbl.NumRows()), "match_ratio")
}
