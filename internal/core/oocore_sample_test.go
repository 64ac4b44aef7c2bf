// Internal test pinning the streaming sampler: the stratified min-hash
// reservoir over a chunked code store must equal the in-memory scan for
// any (budget, seed, candidate subset) — the order-independence claim the
// out-of-core path rests on.
package core

import (
	"math/rand"
	"testing"
)

func TestStratifiedReservoirStreamsFromStore(t *testing.T) {
	mem := sampleTestBinned(t, 1200, 9)
	// An independent binned twin switched onto a store with tiny blocks, so
	// every scan crosses many chunk boundaries.
	ooc := storeTwin(t, 1200, 9)

	cols := make([]int, mem.NumCols())
	for i := range cols {
		cols[i] = i
	}
	allRows := make([]int, mem.NumRows())
	for i := range allRows {
		allRows[i] = i
	}
	rng := rand.New(rand.NewSource(4))
	subset := func(n int) []int {
		out := append([]int(nil), allRows...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		out = out[:n]
		return out
	}
	cases := [][]int{allRows, subset(700), subset(333), allRows[100:800]}
	for ci, rows := range cases {
		for _, budget := range []int{50, 200, len(rows), len(rows) + 10} {
			for _, seed := range []int64{1, 42, -7} {
				want := stratifiedReservoir(mem, rows, cols, budget, seed)
				got := stratifiedReservoir(ooc, rows, cols, budget, seed)
				if len(want) != len(got) {
					t.Fatalf("case %d budget %d seed %d: %d sampled via store, %d in memory", ci, budget, seed, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("case %d budget %d seed %d: sample[%d] = %d via store, %d in memory", ci, budget, seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}
