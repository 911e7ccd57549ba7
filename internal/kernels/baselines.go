package kernels

import (
	"fmt"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Solver is a preprocessed whole-matrix SpTRSV ready to solve Lx=b
// repeatedly. The concrete baselines mirror the algorithms the paper
// compares against (Table 3): the serial reference, the plain level-set
// method, the Sync-free method of Liu et al., and the cuSPARSE-v2-like
// merged level-set method.
type Solver[T sparse.Float] interface {
	// Solve computes x from b; b is not modified. len(b)==len(x)==n.
	Solve(b, x []T)
	// Name identifies the algorithm for reports.
	Name() string
	// Rows reports the system size.
	Rows() int
}

// splitLower validates L and splits it into a strictly-lower CSC part plus
// a dense diagonal, the shared preprocessing of the CSC-based baselines.
func splitLower[T sparse.Float](l *sparse.CSR[T]) (*sparse.CSC[T], []T, error) {
	if err := sparse.CheckLowerSolvable(l); err != nil {
		return nil, nil, err
	}
	return mustSplit(l.ToCSC())
}

func mustSplit[T sparse.Float](csc *sparse.CSC[T]) (*sparse.CSC[T], []T, error) {
	strict, diag, err := sparse.SplitDiagCSC(csc)
	if err != nil {
		return nil, nil, err
	}
	return strict, diag, nil
}

// SerialSolver is the single-threaded reference (Algorithm 1).
type SerialSolver[T sparse.Float] struct {
	l *sparse.CSR[T]
}

// NewSerialSolver validates L and returns the serial baseline.
func NewSerialSolver[T sparse.Float](l *sparse.CSR[T]) (*SerialSolver[T], error) {
	if err := sparse.CheckLowerSolvable(l); err != nil {
		return nil, err
	}
	return &SerialSolver[T]{l: l}, nil
}

func (s *SerialSolver[T]) Name() string { return "serial" }
func (s *SerialSolver[T]) Rows() int    { return s.l.Rows }

func (s *SerialSolver[T]) Solve(b, x []T) {
	SerialSolveCSR(s.l, b, x, nil)
}

// SerialSolveCSR is the serial forward substitution on a solvable lower CSR
// (diagonal last in each row): Algorithm 1 in gather form. It serves the
// serial baseline, the guarded path's last-resort fallback and every
// serial leaf the block solver's walk makes. Row i reads b[i] before it
// writes x[i], and b is never written, so b and x may be the same slice.
// After every serialGuardCols rows it takes one guard progress step and
// polls g, as TriSerialSolve does per column; it reports false once g
// tripped, leaving x unspecified. A nil guard never trips.
//
// The row loop is the rolled textbook one, one accumulator in entry
// order, so it rounds exactly as Algorithm 1 does. Each row's sum feeds
// x[i], which later rows read, so the solve is one long dependency chain;
// a 4-way unroll over two accumulators measured slower than this loop on
// the benchmark's leaves (DESIGN.md §6.9).
//
//sptrsv:hotpath
func SerialSolveCSR[T sparse.Float](l *sparse.CSR[T], b, x []T, g *exec.Guard) bool {
	n := l.Rows
	if n == 0 {
		return true
	}
	// Length hints up front, as in TriSerialSolve: the per-row reads of
	// the row pointers and b and the write of x[i] carry no bounds checks.
	rowPtr, colIdx, vals := l.RowPtr, l.ColIdx, l.Val
	_ = rowPtr[n]
	_ = b[n-1]
	_ = x[n-1]
	next := serialGuardCols
	for i := 0; i < n; i++ {
		if i == next {
			g.Step()
			if g.Tripped() {
				return false
			}
			next += serialGuardCols
		}
		lo, hi := rowPtr[i], rowPtr[i+1]-1 // diagonal is the last entry of a solvable row
		sum := b[i]
		for k := lo; k < hi; k++ {
			sum -= vals[k] * x[colIdx[k]]
		}
		x[i] = sum / vals[hi]
	}
	g.Step()
	return !g.Tripped()
}

// SerialSolveCSROrdered is SerialSolveCSR on the caller's vectors over a
// level-ordered copy of L's rows: row q of l is row ord[q] of L, with L's
// column indices and entry order, and it solves x[ord[q]] from b[ord[q]].
// Every entry of a row but its diagonal, which is last, must read a row
// placed before it, as a level order guarantees. Each row then sums
// exactly what SerialSolveCSR sums in the same order, so the two agree
// bit for bit. Row ord[q] reads its b before it writes its x, and no other
// row reads that b, so b and x may be the same slice. The guard is
// stepped and polled as in SerialSolveCSR.
//
// It is a loop of its own rather than a branch inside SerialSolveCSR: in
// a prototype, a per-row test of ord read 1.3–1.6× the separate loop on
// layered leaves (DESIGN.md §6.9). It has no batch twin: at k values a
// row, the rows carry their own independent work, and SerialSolveCSRBatch
// on L in the caller's order, which streams b and x, measured faster
// than the level order at k = 16 (EXPERIMENTS.md).
//
//sptrsv:hotpath
func SerialSolveCSROrdered[T sparse.Float](l *sparse.CSR[T], ord []int, b, x []T, g *exec.Guard) bool {
	n := l.Rows
	if n == 0 {
		return true
	}
	rowPtr, colIdx, vals := l.RowPtr, l.ColIdx, l.Val
	_ = rowPtr[n]
	ord = ord[:n]
	next := serialGuardCols
	for q := 0; q < n; q++ {
		if q == next {
			g.Step()
			if g.Tripped() {
				return false
			}
			next += serialGuardCols
		}
		i := ord[q]
		lo, hi := rowPtr[q], rowPtr[q+1]-1 // diagonal is the last entry of the row
		sum := b[i]
		for k := lo; k < hi; k++ {
			sum -= vals[k] * x[colIdx[k]]
		}
		x[i] = sum / vals[hi]
	}
	g.Step()
	return !g.Tripped()
}

// LevelSetSolver is the plain level-set baseline (Algorithm 2): one
// parallel launch and one barrier per level.
type LevelSetSolver[T sparse.Float] struct {
	pool   exec.Launcher
	strict *sparse.CSC[T]
	diag   []T
	info   *levelset.Info
	w      []T
}

// NewLevelSetSolver preprocesses L (level-set analysis) for the pool.
func NewLevelSetSolver[T sparse.Float](p exec.Launcher, l *sparse.CSR[T]) (*LevelSetSolver[T], error) {
	strict, diag, err := splitLower(l)
	if err != nil {
		return nil, err
	}
	return &LevelSetSolver[T]{
		pool:   p,
		strict: strict,
		diag:   diag,
		info:   levelset.FromLowerCSR(l),
		w:      make([]T, l.Rows),
	}, nil
}

func (s *LevelSetSolver[T]) Name() string         { return "level-set" }
func (s *LevelSetSolver[T]) Rows() int            { return len(s.diag) }
func (s *LevelSetSolver[T]) Info() *levelset.Info { return s.info }

func (s *LevelSetSolver[T]) Solve(b, x []T) {
	copy(s.w, b)
	TriLevelSetSolve(s.pool, s.strict, s.diag, s.info, s.w, x, nil)
}

// SyncFreeSolver is the Sync-free baseline of Liu et al. (Algorithm 3).
type SyncFreeSolver[T sparse.Float] struct {
	pool   exec.Launcher
	strict *sparse.CSC[T]
	diag   []T
	state  *SyncFreeState
	w      []T
}

// NewSyncFreeSolver preprocesses L (in-degree counting) for the pool.
func NewSyncFreeSolver[T sparse.Float](p exec.Launcher, l *sparse.CSR[T]) (*SyncFreeSolver[T], error) {
	strict, diag, err := splitLower(l)
	if err != nil {
		return nil, err
	}
	return &SyncFreeSolver[T]{
		pool:   p,
		strict: strict,
		diag:   diag,
		state:  NewSyncFreeState(strict),
		w:      make([]T, l.Rows),
	}, nil
}

func (s *SyncFreeSolver[T]) Name() string { return "sync-free" }
func (s *SyncFreeSolver[T]) Rows() int    { return len(s.diag) }

func (s *SyncFreeSolver[T]) Solve(b, x []T) {
	copy(s.w, b)
	TriSyncFreeSolve(s.pool, s.state, s.strict, s.diag, s.w, x, nil)
}

// CuSparseLikeSolver is the cuSPARSE-v2 stand-in: level-set analysis plus
// Naumov's merging of narrow consecutive levels into serial chunks, solved
// in gather form on CSR (no atomics).
type CuSparseLikeSolver[T sparse.Float] struct {
	pool      exec.Launcher
	strictCSR *sparse.CSR[T]
	diag      []T
	sched     *MergedSchedule
	info      *levelset.Info
	w         []T
}

// NewCuSparseLikeSolver runs the analysis phase (the expensive
// csrsv2_analysis analogue) for the pool.
func NewCuSparseLikeSolver[T sparse.Float](p exec.Launcher, l *sparse.CSR[T]) (*CuSparseLikeSolver[T], error) {
	if err := sparse.CheckLowerSolvable(l); err != nil {
		return nil, err
	}
	n := l.Rows
	// Strictly-lower CSR plus diagonal, directly from the solvable layout
	// (diagonal last in each row).
	rowPtr := make([]int, n+1)
	colIdx := make([]int, 0, l.NNZ()-n)
	val := make([]T, 0, l.NNZ()-n)
	diag := make([]T, n)
	for i := 0; i < n; i++ {
		hi := l.RowPtr[i+1] - 1
		diag[i] = l.Val[hi]
		for k := l.RowPtr[i]; k < hi; k++ {
			colIdx = append(colIdx, l.ColIdx[k])
			val = append(val, l.Val[k])
		}
		rowPtr[i+1] = len(val)
	}
	info := levelset.FromLowerCSR(l)
	return &CuSparseLikeSolver[T]{
		pool:      p,
		strictCSR: &sparse.CSR[T]{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val},
		diag:      diag,
		sched:     NewMergedSchedule(info, 0, p.Workers()),
		info:      info,
		w:         make([]T, n),
	}, nil
}

func (s *CuSparseLikeSolver[T]) Name() string { return "cusparse-like" }
func (s *CuSparseLikeSolver[T]) Rows() int    { return len(s.diag) }

// Schedule exposes the merged schedule for tests and reports.
func (s *CuSparseLikeSolver[T]) Schedule() *MergedSchedule { return s.sched }

func (s *CuSparseLikeSolver[T]) Solve(b, x []T) {
	copy(s.w, b)
	TriCuSparseLikeSolve(s.pool, s.sched, s.strictCSR, s.diag, s.w, x, nil)
}

// NewBaseline constructs a named whole-matrix baseline; the benchmark
// harness uses it to iterate algorithms by name.
func NewBaseline[T sparse.Float](name string, p exec.Launcher, l *sparse.CSR[T]) (Solver[T], error) {
	switch name {
	case "serial":
		return NewSerialSolver(l)
	case "level-set":
		return NewLevelSetSolver(p, l)
	case "sync-free":
		return NewSyncFreeSolver(p, l)
	case "cusparse-like":
		return NewCuSparseLikeSolver(p, l)
	}
	return nil, fmt.Errorf("kernels: unknown baseline %q", name)
}
