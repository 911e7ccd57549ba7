package sparse

import (
	"errors"
	"math"
	"testing"
)

func lowerFixture() *CSR[float64] {
	// [2 . .]
	// [1 3 .]
	// [. 4 5]
	return &CSR[float64]{
		Rows: 3, Cols: 3,
		RowPtr: []int{0, 1, 3, 5},
		ColIdx: []int{0, 0, 1, 1, 2},
		Val:    []float64{2, 1, 3, 4, 5},
	}
}

func TestValidateAcceptsCleanMatrix(t *testing.T) {
	m := lowerFixture()
	if err := Validate(m); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := ValidateLower(m); err != nil {
		t.Fatalf("ValidateLower: %v", err)
	}
	u := m.Transpose()
	if err := ValidateUpper(u); err != nil {
		t.Fatalf("ValidateUpper: %v", err)
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := lowerFixture()
		m.Val[1] = bad // entry (1,0)
		err := Validate(m)
		var nf ErrNonFinite
		if !errors.As(err, &nf) {
			t.Fatalf("value %v: got %v, want ErrNonFinite", bad, err)
		}
		if nf.Row != 1 || nf.Col != 0 {
			t.Fatalf("value %v: coordinates (%d,%d), want (1,0)", bad, nf.Row, nf.Col)
		}
		if err := ValidateLower(m); !errors.As(err, &nf) {
			t.Fatalf("ValidateLower should surface the same defect, got %v", err)
		}
	}
}

func TestValidateLowerRejectsZeroAndMissingDiagonal(t *testing.T) {
	zero := lowerFixture()
	zero.Val[2] = 0 // diagonal of row 1
	err := ValidateLower(zero)
	var zd ErrZeroDiagonal
	if !errors.As(err, &zd) || zd.Row != 1 {
		t.Fatalf("zero diagonal: got %v, want ErrZeroDiagonal{Row:1}", err)
	}
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("ErrZeroDiagonal must match the ErrSingular sentinel, got %v", err)
	}

	missing := &CSR[float64]{ // row 2 has no diagonal entry
		Rows: 3, Cols: 3,
		RowPtr: []int{0, 1, 3, 4},
		ColIdx: []int{0, 0, 1, 1},
		Val:    []float64{2, 1, 3, 4},
	}
	if err := ValidateLower(missing); !errors.As(err, &zd) || zd.Row != 2 {
		t.Fatalf("missing diagonal: got %v, want ErrZeroDiagonal{Row:2}", err)
	}
}

func TestValidateLowerRejectsUpperEntry(t *testing.T) {
	m := &CSR[float64]{
		Rows: 2, Cols: 2,
		RowPtr: []int{0, 2, 3},
		ColIdx: []int{0, 1, 1},
		Val:    []float64{1, 7, 1},
	}
	if err := ValidateLower(m); !errors.Is(err, ErrNotTriangular) {
		t.Fatalf("got %v, want ErrNotTriangular", err)
	}
}

func TestValidateUpperRejectsDefects(t *testing.T) {
	u := lowerFixture().Transpose()
	u.Val[0] = 0 // diagonal of row 0
	var zd ErrZeroDiagonal
	if err := ValidateUpper(u); !errors.As(err, &zd) || zd.Row != 0 {
		t.Fatalf("zero diagonal: got %v, want ErrZeroDiagonal{Row:0}", err)
	}
	l := lowerFixture()
	if err := ValidateUpper(l); !errors.Is(err, ErrNotTriangular) {
		t.Fatalf("lower matrix: got %v, want ErrNotTriangular", err)
	}
}

func TestValidateRejectsStructuralDefects(t *testing.T) {
	oob := lowerFixture()
	oob.ColIdx[4] = 9 // out of range
	if err := Validate(oob); !errors.Is(err, ErrShape) {
		t.Fatalf("out-of-bounds column: got %v, want ErrShape", err)
	}
	unsorted := lowerFixture()
	unsorted.ColIdx[1], unsorted.ColIdx[2] = 1, 0
	if err := Validate(unsorted); !errors.Is(err, ErrShape) {
		t.Fatalf("unsorted row: got %v, want ErrShape", err)
	}
}

func TestScaledResidual(t *testing.T) {
	m := lowerFixture()
	x := []float64{1, 2, 3}
	b := make([]float64, 3)
	// b = M·x exactly
	for i := 0; i < 3; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			b[i] += m.Val[k] * x[m.ColIdx[k]]
		}
	}
	if r := ScaledResidual(m, x, b); r != 0 {
		t.Fatalf("exact solution: residual %g", r)
	}
	x[2] += 1 // perturb: row 2 residual = 5 / (1+|b2|)
	want := 5.0 / (1 + math.Abs(b[2]))
	if r := ScaledResidual(m, x, b); math.Abs(r-want) > 1e-15 {
		t.Fatalf("residual %g want %g", r, want)
	}
}

// TestScaledResidualNaNIsInf: a residual that is NaN, from an x holding
// NaN or from Inf − Inf, reads +Inf, so no tolerance accepts the x; a
// maximum kept with r > worst skips NaN and read 0 for an all-NaN x.
func TestScaledResidualNaNIsInf(t *testing.T) {
	m := lowerFixture()
	b := []float64{1, 2, 3}
	nan := math.NaN()
	for _, x := range [][]float64{
		{nan, nan, nan},
		{0.5, nan, 1},
		{math.Inf(1), math.Inf(-1), 0},
	} {
		if r := ScaledResidual(m, x, b); !math.IsInf(r, 1) {
			t.Errorf("ScaledResidual(x=%v) = %v, want +Inf", x, r)
		}
	}
	// L rows [1], [-2 1], [-2 1 1] with b = [1.7e308, 1.7e308, 0]: the
	// exact x overflows, and forward substitution gives [1.7e308, +Inf,
	// NaN].
	l := FromDense(3, 3, []float64{1, 0, 0, -2, 1, 0, -2, 1, 1})
	if r := ScaledResidual(l, []float64{1.7e308, math.Inf(1), nan}, []float64{1.7e308, 1.7e308, 0}); !math.IsInf(r, 1) {
		t.Errorf("overflowed substitution: residual %v, want +Inf", r)
	}
}
