package sparse

import (
	"fmt"
	"math"
)

// ErrZeroDiagonal reports a missing or exactly-zero diagonal entry, the
// defect that turns a triangular solve into silent Inf/NaN contamination.
// It satisfies errors.Is(err, ErrSingular).
type ErrZeroDiagonal struct {
	Row int
}

func (e ErrZeroDiagonal) Error() string {
	return fmt.Sprintf("sparse: zero or missing diagonal at row %d", e.Row)
}

// Is makes errors.Is(err, ErrSingular) match, so callers written against
// the older sentinel keep working.
func (e ErrZeroDiagonal) Is(target error) bool { return target == ErrSingular }

// ErrNonFinite reports a stored NaN or Inf value, which contaminates every
// component reachable from its row in a solve.
type ErrNonFinite struct {
	Row, Col int
}

func (e ErrNonFinite) Error() string {
	return fmt.Sprintf("sparse: non-finite value at (%d,%d)", e.Row, e.Col)
}

// Validate runs the full defensive pass over any CSR matrix: the
// structural invariants of (*CSR).Validate (pointer monotonicity, sorted
// in-bounds indices) plus a numerical sweep rejecting NaN and Inf values.
// It is the analysis-time gate of the guarded solve path; triangular
// callers use ValidateLower / ValidateUpper, which add the diagonal and
// shape checks.
func Validate[T Float](m *CSR[T]) error {
	if err := m.Validate(); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if v := float64(m.Val[k]); math.IsNaN(v) || math.IsInf(v, 0) {
				return ErrNonFinite{Row: i, Col: m.ColIdx[k]}
			}
		}
	}
	return nil
}

// ValidateLower is the analyze-time validation of a lower-triangular
// system: Validate plus squareness, lower triangularity and a present,
// nonzero, finite diagonal. Failures surface as typed errors
// (ErrZeroDiagonal, ErrNonFinite) or wrapped sentinels (ErrNotTriangular,
// ErrShape) instead of the silent garbage an unchecked solve would emit.
func ValidateLower[T Float](m *CSR[T]) error {
	if err := Validate(m); err != nil {
		return err
	}
	if m.Rows != m.Cols {
		return fmt.Errorf("%w: %dx%d not square", ErrShape, m.Rows, m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if hi > lo && m.ColIdx[hi-1] > i {
			return fmt.Errorf("%w: row %d has entry in column %d", ErrNotTriangular, i, m.ColIdx[hi-1])
		}
		if hi == lo || m.ColIdx[hi-1] != i || m.Val[hi-1] == 0 {
			return ErrZeroDiagonal{Row: i}
		}
	}
	return nil
}

// ValidateUpper mirrors ValidateLower for upper-triangular systems (the
// diagonal is the first stored entry of each row).
func ValidateUpper[T Float](m *CSR[T]) error {
	if err := Validate(m); err != nil {
		return err
	}
	if m.Rows != m.Cols {
		return fmt.Errorf("%w: %dx%d not square", ErrShape, m.Rows, m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if hi > lo && m.ColIdx[lo] < i {
			return fmt.Errorf("%w: row %d has entry in column %d", ErrNotTriangular, i, m.ColIdx[lo])
		}
		if hi == lo || m.ColIdx[lo] != i || m.Val[lo] == 0 {
			return ErrZeroDiagonal{Row: i}
		}
	}
	return nil
}

// ScaledResidual returns the scaled infinity-norm residual
// max_i |(M·x − b)_i| / (1 + |b_i|) — the acceptance metric used by the
// guarded solve path, the examples and the command-line tools. A row
// whose residual is NaN (an x holding NaN, or Inf − Inf) counts as +Inf,
// as in BackwardError, so no tolerance accepts it.
//
//sptrsv:hotpath
func ScaledResidual[T Float](m *CSR[T], x, b []T) float64 {
	n := m.Rows
	if n == 0 {
		return 0
	}
	// Length hints: the b reads carry no bounds checks, and each row's
	// entries are read as two slices of one length, so the inner loop
	// checks only its x reads.
	rowPtr, colIdx, vals := m.RowPtr, m.ColIdx, m.Val
	_ = rowPtr[n]
	_ = b[n-1]
	worst := 0.0
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		cols := colIdx[lo:hi]
		vs := vals[lo:hi]
		vs = vs[:len(cols)]
		var sum T
		for j, c := range cols {
			sum += vs[j] * x[c]
		}
		bi := float64(b[i])
		r := math.Abs(float64(sum)-bi) / (1 + math.Abs(bi))
		if math.IsNaN(r) {
			r = math.Inf(1)
		}
		worst = max(worst, r)
	}
	return worst
}
