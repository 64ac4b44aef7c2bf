package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"subtab/internal/binning"
	"subtab/internal/datagen"
)

// The stage benchmarks run the scatter/gather sampler's shard stages over
// a 200k-row Flights table split into 4 on-disk shards, filtered to about a
// quarter of the rows (DISTANCE at or below its lower quartile), at the
// default sample budget.
const (
	benchRows   = 200_000
	benchShards = 4
	benchBudget = 20_000
)

type scanBench struct {
	b      *binning.Binned
	src    *Source
	cols   []int
	keep   [][]bool // per shard
	sums   []Summary
	seed   int64
	remove func()
}

// Benchmark results land in package-level sinks so the calls stay live.
var (
	benchSum    Summary
	benchRowIDs []int64
	benchSample []int
)

var (
	scanBenchOnce sync.Once
	scanBenchEnv  *scanBench
	scanBenchErr  error
)

func scanBenchSetup(tb testing.TB) *scanBench {
	tb.Helper()
	scanBenchOnce.Do(func() { scanBenchEnv, scanBenchErr = newScanBench() })
	if scanBenchErr != nil {
		tb.Fatal(scanBenchErr)
	}
	return scanBenchEnv
}

func newScanBench() (*scanBench, error) {
	t := datagen.Flights(benchRows, 1).T
	b, err := binning.Bin(t, binning.Options{MaxBins: 5, Strategy: binning.KDEValleys, Seed: 1})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "shard-bench")
	if err != nil {
		return nil, err
	}
	paths := make([]string, benchShards)
	cuts := make([]int, benchShards+1)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("fl.codes.%03d", i))
		cuts[i+1] = (i + 1) * benchRows / benchShards
	}
	sink, err := NewSplitSink(paths, cuts, b.NumCols(), 0)
	if err != nil {
		return nil, err
	}
	if err := b.ExportCodes(sink, 0); err != nil {
		sink.Abort()
		return nil, err
	}
	sm, err := sink.Close()
	if err != nil {
		return nil, err
	}
	src, err := Open(dir, sm, b.NumCols(), false)
	if err != nil {
		return nil, err
	}

	// Keep the rows at or below DISTANCE's lower quartile.
	nums := t.ColumnAt(t.ColumnIndex("DISTANCE")).Nums
	vals := slices.Clone(nums)
	slices.Sort(vals)
	q := vals[len(vals)/4]
	e := &scanBench{b: b, src: src, seed: 5, remove: func() { src.Close(); os.RemoveAll(dir) }}
	for j := 0; j < b.NumCols(); j++ {
		e.cols = append(e.cols, j)
	}
	for i := 0; i < benchShards; i++ {
		keep := make([]bool, src.ShardRows(i))
		for r := range keep {
			keep[r] = nums[src.ShardStart(i)+r] <= q
		}
		e.keep = append(e.keep, keep)
		e.sums = append(e.sums, ScanFiltered(b, src.ShardSource(i), src.ShardStart(i), e.cols, benchBudget, e.seed, keep))
	}
	return e, nil
}

// BenchmarkShardScanFiltered is the worker scan stage: every shard's
// filtered summary, one shard after another.
func BenchmarkShardScanFiltered(b *testing.B) {
	e := scanBenchSetup(b)
	matched := 0
	for _, keep := range e.keep {
		for _, k := range keep {
			if k {
				matched++
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < benchShards; s++ {
			benchSum = ScanFiltered(e.b, e.src.ShardSource(s), e.src.ShardStart(s), e.cols, benchBudget, e.seed, e.keep[s])
		}
	}
	b.ReportMetric(float64(matched)/benchRows, "match_ratio")
}

// BenchmarkFinishSample is the coordinator's merge stage: fold the shard
// summaries, list each one's candidate rows, and finish the pick order.
func BenchmarkFinishSample(b *testing.B) {
	e := scanBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sum := range e.sums {
			benchRowIDs = sum.CandidateRows()
		}
		strata, cands := MergeSummaries(e.sums, e.b.NumItems())
		benchSample = FinishSample(strata, cands, benchBudget)
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	if scanBenchEnv != nil {
		scanBenchEnv.remove()
	}
	os.Exit(code)
}
