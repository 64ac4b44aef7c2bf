package table

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fmtFormatNum is FormatNum's historical fmt-based form, the reference its
// strconv fast path must match byte for byte.
func fmtFormatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%g", v)
}

func TestFormatNumMatchesFmt(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 7, -42, 100, 2000, 1234.5, -0.25,
		1e15 - 1, -(1e15 - 1), 1e15, -1e15, 1e15 + 2, 1e21, 1e22, -1e300,
		0.1, 1.0 / 3, 2.5e-7, 1e-5, 123456.789, 5e-324, -5e-324,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	check := func(v float64) {
		t.Helper()
		if got, want := FormatNum(v), fmtFormatNum(v); got != want {
			t.Fatalf("FormatNum(%v) = %q, fmt renders %q", v, got, want)
		}
	}
	for _, v := range cases {
		check(v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		var v float64
		switch i % 5 {
		case 0: // integers across the fast-path boundary
			v = math.Trunc((rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(18))))
		case 1: // fractions at every scale
			v = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(40)-20))
		case 2: // short decimals like the generators emit
			v = math.Round(rng.NormFloat64()*1e4) / 100
		case 3: // arbitrary bit patterns, NaNs and infinities included
			v = math.Float64frombits(rng.Uint64())
		default: // halves, where rounding modes differ
			v = float64(rng.Intn(1<<20)) + 0.5
		}
		check(v)
	}
}
