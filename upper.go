package blocksptrsv

import (
	"context"
	"fmt"
	"io"
	"sync"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// UpperSolver solves the upper-triangular system U·x = b with the block
// algorithm, via the mirror identity: with J the index-reversal
// permutation, J·U·J is lower triangular, so U·x = b becomes
// (J·U·J)·(J·x) = J·b. Analyze the mirrored matrix once, then each solve
// costs two vector reversals on top of a lower solve.
//
// Together with Solver this completes the L·U solve pipeline of
// ILU-preconditioned iterative methods: z = U⁻¹(L⁻¹ r).
type UpperSolver[T Float] struct {
	inner  *Solver[T]
	n      int
	br, xr []T
}

// AnalyzeUpper preprocesses the upper-triangular system U for repeated
// solves. U must be square, upper triangular, with a full diagonal of
// entries sparse.UsableDiagonal accepts, as Analyze requires.
func AnalyzeUpper[T Float](u *Matrix[T], opts Options) (*UpperSolver[T], error) {
	if u.Rows != u.Cols {
		return nil, fmt.Errorf("blocksptrsv: AnalyzeUpper: %dx%d not square", u.Rows, u.Cols)
	}
	if opts.Validate {
		// Validate in the original orientation so defect coordinates
		// (row, column) refer to the caller's matrix, not the mirror.
		if err := sparse.ValidateUpper(u); err != nil {
			return nil, err
		}
	}
	if !u.IsUpperTriangular() {
		return nil, sparse.ErrNotTriangular
	}
	n := u.Rows
	rev := make([]int, n)
	for i := range rev {
		rev[i] = n - 1 - i
	}
	mirrored, err := sparse.PermuteSym(u, rev)
	if err != nil {
		return nil, err
	}
	inner, err := Analyze(mirrored, opts)
	if err != nil {
		return nil, err
	}
	return &UpperSolver[T]{inner: inner, n: n, br: make([]T, n), xr: make([]T, n)}, nil
}

// Rows reports the system size.
func (s *UpperSolver[T]) Rows() int { return s.n }

// Name identifies the solver configuration for reports.
func (s *UpperSolver[T]) Name() string { return s.inner.Name() + "-upper" }

// Solve computes x with U·x = b. Not safe for concurrent use.
func (s *UpperSolver[T]) Solve(b, x []T) {
	n := s.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("blocksptrsv: UpperSolver.Solve got len(b)=%d len(x)=%d want %d", len(b), len(x), n))
	}
	for i := 0; i < n; i++ {
		s.br[i] = b[n-1-i]
	}
	s.inner.Solve(s.br, s.xr)
	for i := 0; i < n; i++ {
		x[i] = s.xr[n-1-i]
	}
}

// SolveContext is the guarded counterpart of Solve: cancellation, the
// stall watchdog and residual verification apply exactly as on
// Solver.SolveContext (on the mirrored lower system — residuals are
// invariant under the mirror permutation). Length mismatches return an
// error instead of panicking.
func (s *UpperSolver[T]) SolveContext(ctx context.Context, b, x []T) error {
	n := s.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("blocksptrsv: UpperSolver.SolveContext got len(b)=%d len(x)=%d want %d", len(b), len(x), n)
	}
	for i := 0; i < n; i++ {
		s.br[i] = b[n-1-i]
	}
	if err := s.inner.SolveContext(ctx, s.br, s.xr); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		x[i] = s.xr[n-1-i]
	}
	return nil
}

// Stats returns the inner solver's instrumentation counters, including
// the SolveContext recovery counts (Refinements, Fallbacks).
func (s *UpperSolver[T]) Stats() SolveStats { return s.inner.Stats() }

// MatVec computes y = m·x in parallel on a default-size pool. It is the
// general sparse matrix-vector product used by the iterative-solver
// examples; x and y must not alias.
func MatVec[T Float](m *Matrix[T], x, y []T) {
	kernels.Multiply(matVecPool(), m, x, y)
}

// matVecPool is created on the first MatVec, so importing the package
// starts no workers.
var matVecPool = sync.OnceValue(func() *exec.SpinPool { return exec.NewSpinPool(0) })

// LoadSolver reloads a Solver previously serialised with Solver.WriteTo,
// binding it to a pool of the given size (<=0 = GOMAXPROCS). The stored
// analysis — permutation, blocks, kernel choices — is reused verbatim, so
// the preprocessing cost is paid once across program runs. The pool's
// workers exit once the solver is unreachable.
func LoadSolver[T Float](r io.Reader, workers int) (*Solver[T], error) {
	return block.ReadSolver[T](r, exec.NewImplicitLauncher(exec.LaunchSpin, workers))
}

// TuneThresholds runs a reduced kernel-selection sweep (Figure 5 of the
// paper) on this machine and returns fitted decision-tree thresholds to
// plug into Options.Thresholds. blockRows is the sub-block size to tune
// at; <=0 picks 20000. The sweep takes a few seconds.
func TuneThresholds(workers, blockRows int) Thresholds {
	if blockRows <= 0 {
		blockRows = 20000
	}
	pool := exec.NewSpinPool(workers)
	defer pool.Close()
	return adapt.QuickFit(pool, blockRows, 3, 7001)
}
