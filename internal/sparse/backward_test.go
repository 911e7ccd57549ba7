package sparse

import (
	"math"
	"testing"
)

// TestBackwardErrorHandComputed checks the Oettli–Prager error on a
// 2×2 system worked by hand, at both element types and over two columns.
// L = [2 0; 1 4], b = [2 5]: x = [1 1] is exact, and x = [1 1.25] leaves
// row 1 with residual 5 − (1 + 5) = −1 over the scale 5 + 1 + 5 = 11.
func TestBackwardErrorHandComputed(t *testing.T) {
	t.Run("float64", func(t *testing.T) { backwardErrorHandComputed[float64](t) })
	t.Run("float32", func(t *testing.T) { backwardErrorHandComputed[float32](t) })
}

func backwardErrorHandComputed[T Float](t *testing.T) {
	l := &CSR[T]{Rows: 2, Cols: 2, RowPtr: []int{0, 1, 3}, ColIdx: []int{0, 0, 1}, Val: []T{2, 1, 4}}
	// Row-major 2×2 blocks: column 0 exact, column 1 perturbed.
	b := []T{2, 2, 5, 5}
	x := []T{1, 1, 1, 1.25}
	got := BackwardError(l, x, b, 2)
	if len(got) != 2 || got[0] != 0 || math.Abs(got[1]-1.0/11) > 1e-15 {
		t.Fatalf("errors %v, want [0 1/11]", got)
	}
	if got := BackwardError(l, x[2:], []T{0, 5}, 1); math.Abs(got[0]-1.0) > 1e-15 {
		// Row 0: b = 0 but 2·x = 2 ≠ 0, so the residual is its whole scale.
		t.Fatalf("k=1 error %v, want 1", got)
	}
	if got := BackwardError(l, []T{0, 0}, []T{0, 0}, 1); got[0] != 0 {
		t.Fatalf("zero system: %v, want 0", got)
	}
	nan := T(math.NaN())
	if got := BackwardError(l, []T{1, nan}, []T{2, 5}, 1); !math.IsInf(got[0], 1) {
		t.Fatalf("NaN solution: %v, want +Inf", got)
	}
}
