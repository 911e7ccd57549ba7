package kernels

import (
	"sort"

	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// SparseRHSSolver solves L·x = b when b has only a few nonzeros — the
// Gilbert–Peierls technique used by the solve phase of sparse direct
// solvers (the paper's §1 motivating scenario): only the components
// reachable from b's nonzeros in the dependency DAG can become nonzero,
// so the solve touches O(flops-on-reach) work instead of O(n).
//
// The solver is serial by design: reach sets are typically tiny (that is
// the point), so parallel machinery would only add overhead. For dense
// right-hand sides use the block solver instead.
type SparseRHSSolver[T sparse.Float] struct {
	l   *sparse.CSR[T]
	csc *sparse.CSC[T] // for downward reachability (column -> dependents)

	// Epoch-stamped visited marks avoid clearing between solves.
	visited []int
	epoch   int
	stack   []int
	reach   []int
	xdense  []T
}

// NewSparseRHSSolver validates L and builds the reachability structure.
func NewSparseRHSSolver[T sparse.Float](l *sparse.CSR[T]) (*SparseRHSSolver[T], error) {
	if err := sparse.CheckLowerSolvable(l); err != nil {
		return nil, err
	}
	return &SparseRHSSolver[T]{
		l:       l,
		csc:     l.ToCSC(),
		visited: make([]int, l.Rows),
		xdense:  make([]T, l.Rows),
	}, nil
}

// Rows reports the system size.
func (s *SparseRHSSolver[T]) Rows() int { return s.l.Rows }

// Reach returns the set of components that can be nonzero for a
// right-hand side supported on bIdx, in ascending order. The slice is
// reused by subsequent calls.
func (s *SparseRHSSolver[T]) Reach(bIdx []int) []int {
	s.epoch++
	s.reach = s.reach[:0]
	for _, seed := range bIdx {
		if seed < 0 || seed >= s.l.Rows {
			continue
		}
		s.dfs(seed)
	}
	sort.Ints(s.reach)
	return s.reach
}

// dfs marks every component reachable downward from seed (iteratively —
// reach chains can be as long as the level count).
func (s *SparseRHSSolver[T]) dfs(seed int) {
	if s.visited[seed] == s.epoch {
		return
	}
	s.visited[seed] = s.epoch
	s.stack = append(s.stack[:0], seed)
	s.reach = append(s.reach, seed)
	for len(s.stack) > 0 {
		j := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for k := s.csc.ColPtr[j]; k < s.csc.ColPtr[j+1]; k++ {
			i := s.csc.RowIdx[k]
			if i == j || s.visited[i] == s.epoch {
				continue
			}
			s.visited[i] = s.epoch
			s.reach = append(s.reach, i)
			s.stack = append(s.stack, i)
		}
	}
}

// Solve computes the sparse solution of L·x = b for b given as coordinate
// pairs (bIdx[i], bVal[i]); duplicate indices sum. It returns the solution
// as parallel index/value slices with ascending indices, covering exactly
// the reach of b (structural nonzeros; values may still be numerically
// zero). The returned slices are valid until the next Solve.
func (s *SparseRHSSolver[T]) Solve(bIdx []int, bVal []T) (xIdx []int, xVal []T) {
	if len(bIdx) != len(bVal) {
		panic("kernels: SparseRHSSolver.Solve got mismatched index/value slices")
	}
	reach := s.Reach(bIdx)
	// Scatter b into the dense workspace (zero outside the reach by
	// the reset discipline below).
	for i, idx := range bIdx {
		if idx >= 0 && idx < len(s.xdense) {
			s.xdense[idx] += bVal[i]
		}
	}
	// Ascending order is a valid schedule: every dependency of a reached
	// component is either reached (and smaller) or has a zero solution.
	l := s.l
	for _, i := range reach {
		sum := s.xdense[i]
		hi := l.RowPtr[i+1] - 1
		inv := 1 / l.Val[hi]
		for k := l.RowPtr[i]; k < hi; k++ {
			if v := s.xdense[l.ColIdx[k]]; v != 0 {
				sum -= l.Val[k] * v
			}
		}
		s.xdense[i] = sum * inv
	}
	xVal = make([]T, len(reach))
	for t, i := range reach {
		xVal[t] = s.xdense[i]
		s.xdense[i] = 0 // reset for the next solve
	}
	return reach, xVal
}
