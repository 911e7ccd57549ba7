package block

import (
	"math"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/gen"
)

func TestHugeValuesOverflowGracefully(t *testing.T) {
	l := gen.SerialChain(200, 0, 404)
	// Scale the rhs to the brink of overflow; the chain multiplies values
	// down the recurrence and may overflow to ±Inf — it must not hang.
	b := make([]float64, 200)
	for i := range b {
		b[i] = math.MaxFloat64 / 2
	}
	s, err := Preprocess(l, Options{Workers: 2, Kind: Recursive, MinBlockRows: 32, Reorder: true,
		Thresholds: paperThresholds()})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 200)
	s.Solve(b, x)
	for _, v := range x {
		if math.IsNaN(v) {
			// NaN can only arise from Inf-Inf; acceptable, but finite or
			// Inf is expected for this well-signed chain.
			t.Log("NaN encountered (acceptable for overflow test)")
			break
		}
	}
}

func TestDenormalAndZeroRHS(t *testing.T) {
	l := gen.Layered(300, 15, 3, 0, 405)
	s, err := Preprocess(l, Options{Workers: 2, Kind: Recursive, MinBlockRows: 50, Reorder: true,
		Thresholds: paperThresholds()})
	if err != nil {
		t.Fatal(err)
	}
	// Zero rhs must give exactly zero solution.
	b := make([]float64, 300)
	x := make([]float64, 300)
	s.Solve(b, x)
	for i, v := range x {
		if v != 0 {
			t.Fatalf("zero rhs gave x[%d]=%g", i, v)
		}
	}
	// Denormal rhs must not hang or panic.
	for i := range b {
		b[i] = 5e-324
	}
	s.Solve(b, x)
}

func TestBatchWithNaN(t *testing.T) {
	l := gen.Layered(300, 10, 3, 0, 406)
	s, err := Preprocess(l, Options{Workers: 3, Kind: Recursive, MinBlockRows: 50, Reorder: true,
		Thresholds: paperThresholds()})
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	b := make([]float64, 300*k)
	for i := range b {
		b[i] = 1
	}
	b[0*k+1] = math.NaN() // poison rhs 1 only
	x := make([]float64, 300*k)
	s.SolveBatch(b, x, k)
	if !math.IsNaN(x[0*k+1]) {
		t.Fatal("NaN did not propagate in poisoned rhs")
	}
	if math.IsNaN(x[0*k+0]) || math.IsNaN(x[0*k+2]) {
		t.Fatal("NaN leaked across right-hand sides")
	}
}
