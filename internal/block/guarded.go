package block

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// The guarded solve path: SolveContext and SolveBatchContext run the same
// plan executor as Solve and SolveBatch with a live exec.Guard instead of
// a nil one. The guard is polled between blocks and inside them — at
// every level and chunk barrier and every sync-free busy-wait, batch
// kernels included — so a solve can be cancelled (context), aborted on
// stall (watchdog), and, for a single right-hand side, verified (residual
// ladder). Plain solves pass a nil guard and pay one predictable branch
// per level, chunk or component for it.

// StallError reports a solve the watchdog aborted because its progress
// counter stopped moving. When a sync-free worker was mid-busy-wait at
// abort time, Row/InDegree identify the head of the stalled dependency
// chain — the component whose dependencies never resolved, and how many
// were still outstanding.
type StallError struct {
	Timeout  time.Duration // the armed Options.StallTimeout
	Progress int64         // work items completed before the stall
	Row      int           // stalled component (block-local), valid when HasRow
	InDegree int32         // its unresolved dependency count, valid when HasRow
	HasRow   bool
}

func (e *StallError) Error() string {
	if e.HasRow {
		return fmt.Sprintf("block: solve stalled for %v after %d steps: component %d still waiting on %d dependencies",
			e.Timeout, e.Progress, e.Row, e.InDegree)
	}
	return fmt.Sprintf("block: solve stalled for %v after %d steps", e.Timeout, e.Progress)
}

// ResidualError reports a solution that missed Options.VerifyResidual even
// after every recovery rung (refinement, serial fallback) had its turn.
type ResidualError struct {
	Residual float64 // scaled infinity-norm residual of the final solution
	Tol      float64 // the tolerance it missed
}

func (e *ResidualError) Error() string {
	return fmt.Sprintf("block: residual %.3e exceeds tolerance %.3e after fallback", e.Residual, e.Tol)
}

// errStalled is the watchdog's internal trip cause; guardCause swaps it
// for a StallError enriched with the guard's diagnostics.
var errStalled = errors.New("block: watchdog: progress counter stalled")

// SolveContext computes x with L·x = b like Solve, with the guarded
// extras selected by ctx and the solver's Options:
//
//   - ctx cancellation propagates into the kernels' spin loops and level
//     barriers; the error is ctx.Err().
//   - Options.StallTimeout arms a watchdog that aborts a solve whose
//     progress counter stops moving and returns a *StallError with the
//     stalled component.
//   - Options.VerifyResidual > 0 checks the solution and degrades
//     gracefully: one refinement step, then the serial reference; a
//     *ResidualError is returned only if even the fallback misses the
//     tolerance.
//
// A panicking kernel body still panics out of SolveContext (after the
// pool has restored itself — the pool stays usable); panics are
// programming errors, not solve outcomes. Like Solve, SolveContext is not
// safe for concurrent use on the same Solver; use sessions.
func (s *Solver[T]) SolveContext(ctx context.Context, b, x []T) error {
	return s.own.SolveContext(ctx, b, x)
}

// SolveContext is the session counterpart of Solver.SolveContext:
// the same guarantees, private scratch, concurrency-safe across sessions.
func (ses *Session[T]) SolveContext(ctx context.Context, b, x []T) error {
	return ses.solveGuarded(ctx, "SolveContext", b, x, 1)
}

// SolveBatchContext solves L·X = B for k right-hand sides like SolveBatch
// (row-major n×k blocks, B and X may alias), with ctx cancellation and the
// solver's Options.StallTimeout guarding the solve exactly as in
// SolveContext: between plan steps and inside the kernels. Length
// mismatches return an error instead of panicking. For k > 1 the
// residual-verification ladder (Options.VerifyResidual) is not run —
// batched callers verify or degrade per right-hand side; k == 1 is
// SolveContext. Not safe for concurrent use; use sessions.
func (s *Solver[T]) SolveBatchContext(ctx context.Context, b, x []T, k int) error {
	return s.own.SolveBatchContext(ctx, b, x, k)
}

// SolveBatchContext is the session counterpart of Solver.SolveBatchContext:
// the same guarantees, private scratch, concurrency-safe across sessions.
func (ses *Session[T]) SolveBatchContext(ctx context.Context, b, x []T, k int) error {
	return ses.solveGuarded(ctx, "SolveBatchContext", b, x, k)
}

// solveGuarded is the guarded wrapper around the plan executor: it arms a
// fresh guard with the context hook and the session's stall watchdog,
// runs the plan under it, turns a trip into the caller-facing error, and
// for a single right-hand side runs the verification ladder.
func (ses *Session[T]) solveGuarded(ctx context.Context, op string, b, x []T, k int) error {
	if err := ses.checkArgs(op, b, x, k); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ses.grow(k)
	g, unhook := ses.armGuard(ctx)
	// Disarm before returning — and before a kernel panic unwinds
	// further, so no watchdog tick outlives its solve.
	defer ses.disarmGuard(unhook)
	if !ses.run(b, x, k, g, 0) {
		return ses.s.guardCause(g)
	}
	if k == 1 && ses.s.opts.VerifyResidual > 0 {
		return ses.verifyAndRecover(b, x)
	}
	return nil
}

// armGuard arms the cancellation machinery of a guarded solve without
// starting a goroutine: a fresh guard, a context.AfterFunc hook that
// trips it on cancellation (unhook removes it; nil when ctx cannot be
// cancelled), and, when Options.StallTimeout is set, the session's stall
// watchdog.
func (ses *Session[T]) armGuard(ctx context.Context) (*exec.Guard, func() bool) {
	g := exec.NewGuard()
	var unhook func() bool
	if ctx.Done() != nil {
		unhook = context.AfterFunc(ctx, func() { g.Trip(ctx.Err()) })
	}
	if timeout := ses.s.opts.StallTimeout; timeout > 0 {
		if ses.watchdog == nil {
			ses.watchdog = &watchdog{}
		}
		ses.watchdog.arm(g, timeout)
	}
	return g, unhook
}

// disarmGuard removes the context hook and stops the watchdog. It must
// run before the solve returns, including while a kernel panic unwinds.
// A hook already running when it runs can still trip the guard, which by
// then nothing reads.
func (ses *Session[T]) disarmGuard(unhook func() bool) {
	if unhook != nil {
		unhook()
	}
	if ses.watchdog != nil {
		ses.watchdog.disarm()
	}
}

// guardCause converts the guard's trip cause into the caller-facing
// error, enriching the watchdog's sentinel with the stall diagnostics the
// workers recorded on their way out.
func (s *Solver[T]) guardCause(g *exec.Guard) error {
	err := g.Cause()
	if !errors.Is(err, errStalled) {
		return err
	}
	se := &StallError{Timeout: s.opts.StallTimeout, Progress: g.Progress()}
	if row, indeg, ok := g.Stall(); ok {
		se.Row, se.InDegree, se.HasRow = row, indeg, true
	}
	return se
}

// watchdog is a session's stall detector: one timer that, while a
// guarded solve is armed, fires every timeout/8 and trips the solve's
// guard once its progress counter has not moved for timeout, so a stall
// is detected within at most 9/8·timeout of its onset. Arming starts no
// goroutine: the timer's callback runs only when a tick falls due, which
// a solve shorter than one tick never sees. The timer is made on the
// first arm and re-armed after that.
type watchdog struct {
	mu       sync.Mutex
	t        *time.Timer
	g        *exec.Guard // the armed solve's guard; nil while disarmed
	timeout  time.Duration
	tick     time.Duration
	last     int64     // progress at the last tick that saw it move
	lastMove time.Time // when that tick ran (or the solve was armed)
	// clock, when set, is read under mu in place of the wall clock, and
	// no timer runs: whoever set it fires the ticks. Tests use it to step
	// the watchdog without wall-clock timing.
	clock func() time.Time
}

// now reads the watchdog's clock.
func (w *watchdog) now() time.Time {
	if w.clock != nil {
		return w.clock()
	}
	return time.Now()
}

// arm starts watching g.
func (w *watchdog) arm(g *exec.Guard, timeout time.Duration) {
	tick := timeout / 8
	if tick <= 0 {
		tick = time.Millisecond
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.g, w.timeout, w.tick, w.last = g, timeout, tick, g.Progress()
	w.lastMove = w.now()
	switch {
	case w.clock != nil:
	case w.t == nil:
		w.t = time.AfterFunc(tick, w.fire)
	default:
		w.t.Reset(tick)
	}
}

// disarm stops the timer. A tick already waiting for the lock finds no
// guard and returns; one that ran before it has re-armed the timer, which
// Stop then cancels. Either way no tick trips g after disarm returns.
func (w *watchdog) disarm() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.g = nil
	if w.t != nil {
		w.t.Stop()
	}
}

// fire is one tick: note movement and re-arm, or trip on a stall. A tick
// left over from an earlier solve, run after the next one armed, measures
// from that solve's arming, so it cannot trip it early.
func (w *watchdog) fire() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.g == nil {
		return
	}
	now := w.now()
	if cur := w.g.Progress(); cur != w.last {
		w.last, w.lastMove = cur, now
	} else if now.Sub(w.lastMove) >= w.timeout {
		w.g.Trip(errStalled)
		return
	}
	if w.t != nil {
		w.t.Reset(w.tick)
	}
}

// verifyAndRecover is the graceful-degradation ladder: check the scaled
// residual, take one refinement step, fall back to the serial reference,
// and only then give up with a ResidualError. The recovery counters land
// in the session's stats.
func (ses *Session[T]) verifyAndRecover(b, x []T) error {
	s := ses.s
	if s.orig == nil {
		return errors.New("block: VerifyResidual needs the original matrix, which a deserialised solver does not retain")
	}
	tol := s.opts.VerifyResidual
	if sparse.ScaledResidual(s.orig, x, b) <= tol {
		return nil
	}
	// One iterative-refinement step: r = b − L·x, solve L·δ = r, x += δ.
	// The parallel path may have produced garbage (it just failed
	// verification), but the correction reuses it anyway — when the
	// failure was mild rounding, one step recovers it.
	if len(ses.r) < s.n {
		ses.r, ses.d = make([]T, s.n), make([]T, s.n)
	}
	s.residualInto(ses.r, b, x)
	// The correction is part of this guarded call: its steps record under
	// the attempt's solve id, so one call traces as one solve.
	ses.run(ses.r, ses.d, 1, nil, ses.stats.LastTraceID)
	for i := range x {
		x[i] += ses.d[i]
	}
	ses.stats.Refinements++
	mRefinements.Inc()
	if sparse.ScaledResidual(s.orig, x, b) <= tol {
		return nil
	}
	// Last rung: the serial reference on the untouched original matrix.
	kernels.SerialSolveCSR(s.orig, b, x, nil)
	ses.stats.Fallbacks++
	mFallbacks.Inc()
	if res := sparse.ScaledResidual(s.orig, x, b); res > tol {
		return &ResidualError{Residual: res, Tol: tol}
	}
	return nil
}

// residualInto computes r = b − L·x on the original (unpermuted) matrix.
func (s *Solver[T]) residualInto(r, b, x []T) {
	l := s.orig
	for i := 0; i < l.Rows; i++ {
		sum := b[i]
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
			sum -= l.Val[k] * x[l.ColIdx[k]]
		}
		r[i] = sum
	}
}
