package block

import (
	"fmt"

	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Session is a per-goroutine solving context over a shared preprocessed
// Solver. The expensive analysis (permutation, blocks, kernel choices) is
// immutable and shared; each session owns the mutable pieces — the working
// vectors and, for sync-free blocks, private dependency counters — so any
// number of sessions may Solve concurrently.
//
// Typical server usage: Analyze once, hand one Session to each request
// goroutine.
type Session[T sparse.Float] struct {
	s *Solver[T]
	// w and xp hold the permuted right-hand sides and solutions (xp only
	// with a permutation), sized for the widest batch solved so far. An
	// in-place plan solves on the caller's vectors and has neither.
	w, xp []T
	// states[i] is the private sync-free state of triangular block i, or
	// nil when block i's kernel needs no mutable state. The Solver's own
	// session has no states and uses the block-owned ones.
	states []*kernels.SyncFreeState
	// r and d are the verification ladder's residual and correction,
	// allocated on the first refinement step.
	r, d []T
	// watchdog is the stall watchdog of the session's guarded solves,
	// made on the first one with Options.StallTimeout set.
	watchdog *watchdog
	stats    SolveStats
}

// newSession allocates a session's single-RHS scratch.
func (s *Solver[T]) newSession() *Session[T] {
	ses := &Session[T]{s: s}
	if !s.inPlace {
		ses.w = make([]T, s.n)
	}
	if s.perm != nil {
		ses.xp = make([]T, s.n)
	}
	return ses
}

// NewSession returns a fresh concurrent solving context. Sessions are
// cheap relative to preprocessing: two n-vectors plus one int32 counter
// array per sync-free block.
func (s *Solver[T]) NewSession() *Session[T] {
	ses := s.newSession()
	ses.states = make([]*kernels.SyncFreeState, len(s.tris))
	for i := range s.tris {
		if s.tris[i].kernel == kernels.TriSyncFree {
			// The base in-degree array is immutable and shared; only the
			// live counters are private.
			ses.states[i] = kernels.NewSyncFreeStateFromCounts(s.tris[i].state.BaseCounts())
		}
	}
	return ses
}

// Rows reports the system size.
func (ses *Session[T]) Rows() int { return ses.s.n }

// Name identifies the underlying solver configuration.
func (ses *Session[T]) Name() string { return ses.s.Name() }

// Stats returns this session's accumulated instrumentation counters.
func (ses *Session[T]) Stats() SolveStats { return ses.stats }

// ResetStats clears this session's instrumentation counters. Sessions
// accumulate stats privately, so resetting one session touches neither
// the shared Solver's counters nor any sibling session's.
func (ses *Session[T]) ResetStats() { ses.stats = SolveStats{} }

// Solve computes x with L·x = b using this session's private scratch.
// Sessions of the same Solver may call Solve concurrently; a single
// Session must not.
//
//sptrsv:hotpath
func (ses *Session[T]) Solve(b, x []T) {
	if n := ses.s.n; len(b) != n || len(x) != n {
		panic(fmt.Sprintf("block: Solve got len(b)=%d len(x)=%d want %d", len(b), len(x), n))
	}
	ses.run(b, x, 1, nil, 0)
}

// SolveBatch is the batched counterpart of Solve (see Solver.SolveBatch).
func (ses *Session[T]) SolveBatch(b, x []T, k int) {
	if err := ses.checkArgs("SolveBatch", b, x, k); err != nil {
		panic(err.Error())
	}
	ses.grow(k)
	ses.run(b, x, k, nil, 0)
}

// checkArgs validates the row-major n×k blocks of a k-RHS solve.
func (ses *Session[T]) checkArgs(op string, b, x []T, k int) error {
	if n := ses.s.n; k <= 0 || len(b) != n*k || len(x) != n*k {
		return fmt.Errorf("block: %s got len(b)=%d len(x)=%d k=%d want %d", op, len(b), len(x), k, n*k)
	}
	return nil
}

// grow sizes the scratch for k right-hand sides. Sessions start sized for
// one, so only batch solves ever allocate here, and in-place plans never.
func (ses *Session[T]) grow(k int) {
	if ses.s.inPlace {
		return
	}
	if nk := ses.s.n * k; len(ses.w) < nk {
		ses.w = make([]T, nk)
		if ses.s.perm != nil {
			ses.xp = make([]T, nk)
		}
	}
}
