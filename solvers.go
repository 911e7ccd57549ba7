package blocksptrsv

import (
	"context"
	"fmt"

	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// LUSolver solves A·x ≈ b given triangular factors A ≈ L·U (for example
// from ILU0 or an external factorisation) with two block triangular
// solves: x = U⁻¹·(L⁻¹·b). It is the complete solve phase of a sparse
// direct or preconditioned iterative method.
type LUSolver struct {
	l *Solver[float64]
	u *UpperSolver[float64]
	y []float64
}

// NewLUSolver preprocesses both factors. L must be lower and U upper
// triangular, both with diagonals sparse.UsableDiagonal accepts, as
// Analyze requires.
func NewLUSolver(l, u *Matrix[float64], opts Options) (*LUSolver, error) {
	ls, err := Analyze(l, opts)
	if err != nil {
		return nil, err
	}
	us, err := AnalyzeUpper(u, opts)
	if err != nil {
		return nil, err
	}
	return &LUSolver{l: ls, u: us, y: make([]float64, l.Rows)}, nil
}

// Rows reports the system size.
func (s *LUSolver) Rows() int { return len(s.y) }

// Name identifies the solver for reports.
func (s *LUSolver) Name() string { return "block-lu" }

// Solve computes x with L·U·x = b. Not safe for concurrent use.
func (s *LUSolver) Solve(b, x []float64) {
	if len(b) != len(s.y) || len(x) != len(s.y) {
		panic(fmt.Sprintf("blocksptrsv: LUSolver.Solve got len(b)=%d len(x)=%d want %d", len(b), len(x), len(s.y)))
	}
	s.l.Solve(b, s.y)
	s.u.Solve(s.y, x)
}

// SolveContext is the guarded counterpart of Solve: both triangular
// solves run with cancellation, the stall watchdog and residual
// verification as configured in the Options passed to NewLUSolver.
// Length mismatches return an error instead of panicking.
func (s *LUSolver) SolveContext(ctx context.Context, b, x []float64) error {
	if len(b) != len(s.y) || len(x) != len(s.y) {
		return fmt.Errorf("blocksptrsv: LUSolver.SolveContext got len(b)=%d len(x)=%d want %d", len(b), len(x), len(s.y))
	}
	if err := s.l.SolveContext(ctx, b, s.y); err != nil {
		return err
	}
	return s.u.SolveContext(ctx, s.y, x)
}

// SparseRHSSolver solves L·x = b for sparse right-hand sides using the
// Gilbert–Peierls reach technique: only the components reachable from b's
// nonzeros are touched, so solve cost is proportional to the size of the
// (often tiny) reach rather than to n. This is the classic optimisation of
// the solve phase of sparse direct solvers.
type SparseRHSSolver[T Float] = kernels.SparseRHSSolver[T]

// AnalyzeSparseRHS builds a sparse-right-hand-side solver for L.
func AnalyzeSparseRHS[T Float](l *Matrix[T]) (*SparseRHSSolver[T], error) {
	return kernels.NewSparseRHSSolver(l)
}

// Residual returns the scaled infinity-norm residual
// max_i |(M·x − b)_i| / (1 + |b_i|) — the acceptance check used across
// this library's examples, tools and the guarded solve path
// (Options.VerifyResidual).
func Residual[T Float](m *Matrix[T], x, b []T) float64 {
	return sparse.ScaledResidual(m, x, b)
}
