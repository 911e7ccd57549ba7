package block

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// The default-build chaos suite: each test corrupts the solve path from
// inside the package (no build tags needed) and asserts the matching
// degradation rung fires — typed error, propagated panic with a reusable
// pool, watchdog abort with diagnostics, residual-triggered fallback. The
// tagged suite in internal/faultinject drives the same rungs through the
// compiled-in hooks.

// 1. Defective input → typed error at analyze time.
func TestChaosValidateRejectsDefectiveInput(t *testing.T) {
	opts := Options{Workers: 2, Kind: Recursive, MinBlockRows: 64, Reorder: true, Adaptive: true, Validate: true}

	l := gen.Layered(200, 10, 3, 0, 901)
	if _, err := Preprocess(l, opts); err != nil {
		t.Fatalf("clean matrix rejected: %v", err)
	}

	zero := gen.Layered(200, 10, 3, 0, 901)
	zero.Val[zero.RowPtr[58]-1] = 0 // diagonal is last in row 57
	_, err := Preprocess(zero, opts)
	var zd sparse.ErrZeroDiagonal
	if !errors.As(err, &zd) || zd.Row != 57 {
		t.Fatalf("zero diagonal: got %v, want ErrZeroDiagonal{57}", err)
	}
	if !errors.Is(err, sparse.ErrSingular) {
		t.Fatal("ErrZeroDiagonal must satisfy errors.Is(err, ErrSingular)")
	}

	nan := gen.Layered(200, 10, 3, 0, 901)
	nan.Val[nan.RowPtr[100]] = math.NaN()
	_, err = Preprocess(nan, opts)
	var nf sparse.ErrNonFinite
	if !errors.As(err, &nf) || nf.Row != 100 {
		t.Fatalf("NaN value: got %v, want ErrNonFinite in row 100", err)
	}
	// Without Validate the NaN sails through analysis (the pre-existing,
	// fast behaviour).
	opts.Validate = false
	if _, err := Preprocess(nan, opts); err != nil {
		t.Fatalf("unvalidated preprocess rejected NaN: %v", err)
	}
}

// panicPool wraps a Launcher and, while armed, injects a panic into the
// first chunk of every ParallelFor body — a stand-in for a crashing
// kernel.
type panicPool struct {
	exec.Launcher
	armed atomic.Bool
}

func (p *panicPool) ParallelFor(n, grain int, body func(lo, hi int)) {
	if !p.armed.Load() {
		p.Launcher.ParallelFor(n, grain, body)
		return
	}
	p.Launcher.ParallelFor(n, grain, func(lo, hi int) {
		if lo == 0 {
			panic("chaos: injected kernel panic")
		}
		body(lo, hi)
	})
}

// 2. Kernel panic → propagates to the caller, pool stays usable.
func TestChaosPanicPropagatesAndPoolSurvives(t *testing.T) {
	inner := exec.NewSpinPool(4)
	defer inner.Close()
	pool := &panicPool{Launcher: inner}
	l := gen.Layered(400, 20, 3, 0, 902)
	s, err := Preprocess(l, Options{Pool: pool, Kind: Recursive, MinBlockRows: 64,
		Reorder: true, Adaptive: false, ForceTri: kernels.TriLevelSet})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.RandVec(400, 903)
	x := make([]float64, 400)

	pool.armed.Store(true)
	got := capturePanic(func() { _ = s.SolveContext(context.Background(), b, x) })
	if got != "chaos: injected kernel panic" {
		t.Fatalf("panic value: %v", got)
	}

	// The same pool, the same solver: a follow-up guarded solve must
	// succeed and verify, proving the resident workers survived.
	pool.armed.Store(false)
	s.opts.VerifyResidual = 1e-10
	if err := s.SolveContext(context.Background(), b, x); err != nil {
		t.Fatalf("follow-up solve after panic: %v", err)
	}
	if st := s.Stats(); st.Fallbacks != 0 {
		t.Fatalf("clean follow-up needed %d fallbacks", st.Fallbacks)
	}
}

func capturePanic(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// guardedEntryPoints are the guarded solve entry points the stall tests
// table over: single-RHS SolveContext and the daemon's coalesced path,
// SolveBatchContext at k = 4.
var guardedEntryPoints = []struct {
	name string
	k    int
}{{"SolveContext", 1}, {"SolveBatchContext", 4}}

// guardedSolve solves for b replicated into k right-hand sides through
// SolveContext (k == 1) or SolveBatchContext and returns the row-major
// solution. The solve runs in its own goroutine behind a bound, so one
// that never returns fails the test instead of hanging it.
func guardedSolve(t *testing.T, ctx context.Context, s *Solver[float64], k int, b []float64) ([]float64, error) {
	t.Helper()
	bk := InterleaveRHS(slices.Repeat([][]float64{b}, k))
	x := make([]float64, len(bk))
	done := make(chan error, 1)
	go func() {
		if k == 1 {
			done <- s.SolveContext(ctx, bk, x)
			return
		}
		done <- s.SolveBatchContext(ctx, bk, x, k)
	}()
	select {
	case err := <-done:
		return x, err
	case <-time.After(10 * time.Second):
		t.Fatalf("k=%d: guarded solve still running after 10s", k)
		return nil, nil
	}
}

// 3. Corrupted in-degree → sync-free workers spin on a dependency that
// never resolves; the watchdog aborts within its deadline and names the
// stalled component.
func TestChaosWatchdogAbortsCorruptedInDegree(t *testing.T) {
	for _, ep := range guardedEntryPoints {
		t.Run(ep.name, func(t *testing.T) {
			n := 600
			l := gen.Layered(n, 30, 3, 0, 904)
			s, err := Preprocess(l, Options{Workers: 4, Kind: Recursive, MinBlockRows: n,
				Reorder: false, Adaptive: false, ForceTri: kernels.TriSyncFree,
				StallTimeout: 100 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if len(s.tris) != 1 || s.tris[0].state == nil {
				t.Fatalf("expected a single sync-free triangle, got %d tris", len(s.tris))
			}
			// A phantom dependency: component 41's in-degree is one too high on
			// every re-arm, so it never becomes ready and everything after it
			// stalls. BaseCounts returns the live slice, so this corrupts the
			// solver's own state — exactly what a stray write would do.
			s.tris[0].state.BaseCounts()[41]++

			b := gen.RandVec(n, 905)
			start := time.Now()
			_, err = guardedSolve(t, context.Background(), s, ep.k, b)
			elapsed := time.Since(start)

			var se *StallError
			if !errors.As(err, &se) {
				t.Fatalf("got %v, want *StallError", err)
			}
			if !se.HasRow || se.Row > 41 {
				t.Fatalf("stall diagnostic row=%d hasRow=%v, want the chain head at or before 41", se.Row, se.HasRow)
			}
			if se.InDegree <= 0 {
				t.Fatalf("stalled in-degree %d, want > 0", se.InDegree)
			}
			if elapsed > 5*time.Second {
				t.Fatalf("watchdog took %v to abort a 100ms stall", elapsed)
			}

			// Un-corrupt and re-solve: the solver itself is undamaged.
			s.tris[0].state.BaseCounts()[41]--
			x, err := guardedSolve(t, context.Background(), s, ep.k, b)
			if err != nil {
				t.Fatalf("solve after repair: %v", err)
			}
			ref := make([]float64, n)
			kernels.SerialSolveCSR(l, b, ref, nil)
			for i := range x {
				if want := ref[i/ep.k]; math.Abs(x[i]-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("x[%d]=%g want %g", i, x[i], want)
				}
			}
		})
	}
}

// The same stall, aborted by context deadline instead of the watchdog.
func TestChaosContextCancelsStalledSolve(t *testing.T) {
	for _, ep := range guardedEntryPoints {
		t.Run(ep.name, func(t *testing.T) {
			n := 400
			l := gen.Layered(n, 20, 3, 0, 906)
			s, err := Preprocess(l, Options{Workers: 4, Kind: Recursive, MinBlockRows: n,
				Reorder: false, Adaptive: false, ForceTri: kernels.TriSyncFree})
			if err != nil {
				t.Fatal(err)
			}
			s.tris[0].state.BaseCounts()[10]++

			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			b := gen.RandVec(n, 907)
			if _, err := guardedSolve(t, ctx, s, ep.k, b); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("got %v, want context.DeadlineExceeded", err)
			}

			// Pre-cancelled context short-circuits without touching the kernels.
			done, cancelNow := context.WithCancel(context.Background())
			cancelNow()
			if _, err := guardedSolve(t, done, s, ep.k, b); !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}
		})
	}
}

// 4. Corrupted numerics → residual check fails, refinement cannot save it
// (the solver itself is broken), serial fallback on the retained original
// matrix delivers the right answer; counters record the recovery.
func TestChaosResidualFallbackRecovers(t *testing.T) {
	n := 500
	l := gen.Layered(n, 25, 3, 0, 908)
	s, err := Preprocess(l, Options{Workers: 3, Kind: Recursive, MinBlockRows: 64,
		Reorder: true, Adaptive: true, Thresholds: paperThresholds(), VerifyResidual: 1e-8, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.RandVec(n, 909)
	x := make([]float64, n)

	if err := s.SolveContext(context.Background(), b, x); err != nil {
		t.Fatalf("clean verified solve: %v", err)
	}
	if st := s.Stats(); st.Refinements != 0 || st.Fallbacks != 0 {
		t.Fatalf("clean solve recorded refinements=%d fallbacks=%d", st.Refinements, st.Fallbacks)
	}

	// Break the preprocessed structure (not the retained original): the
	// parallel solve now produces garbage for everything downstream of
	// the first component of the first triangle.
	s.tris[0].diag[0] *= 1e9

	if err := s.SolveContext(context.Background(), b, x); err != nil {
		t.Fatalf("fallback should have recovered, got %v", err)
	}
	st := s.Stats()
	if st.Refinements != 1 || st.Fallbacks != 1 {
		t.Fatalf("recovery counters: refinements=%d fallbacks=%d, want 1 and 1", st.Refinements, st.Fallbacks)
	}
	ref := make([]float64, n)
	kernels.SerialSolveCSR(l, b, ref, nil)
	for i := range x {
		if math.Abs(x[i]-ref[i]) > 1e-8*(1+math.Abs(ref[i])) {
			t.Fatalf("fallback x[%d]=%g want %g", i, x[i], ref[i])
		}
	}
	if res := sparse.ScaledResidual(l, x, b); res > 1e-8 {
		t.Fatalf("fallback residual %g", res)
	}
}

// Sessions get the same guarantees with private scratch: concurrent
// verified guarded solves over one analysis.
func TestChaosSessionsSolveContextConcurrently(t *testing.T) {
	n := 400
	l := gen.Layered(n, 20, 4, 0, 910)
	s, err := Preprocess(l, Options{Workers: 2, Kind: Recursive, MinBlockRows: 64,
		Reorder: true, Adaptive: true, Thresholds: paperThresholds(), VerifyResidual: 1e-9, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, n)
	b := gen.RandVec(n, 911)
	kernels.SerialSolveCSR(l, b, ref, nil)

	var wg sync.WaitGroup
	errs := make([]error, 4)
	sols := make([][]float64, 4)
	for g := 0; g < 4; g++ {
		ses := s.NewSession()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := make([]float64, n)
			for rep := 0; rep < 10; rep++ {
				if err := ses.SolveContext(context.Background(), b, x); err != nil {
					errs[g] = err
					return
				}
			}
			sols[g] = x
		}(g)
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		if errs[g] != nil {
			t.Fatalf("session %d: %v", g, errs[g])
		}
		for i := range sols[g] {
			if math.Abs(sols[g][i]-ref[i]) > 1e-9*(1+math.Abs(ref[i])) {
				t.Fatalf("session %d: x[%d]=%g want %g", g, i, sols[g][i], ref[i])
			}
		}
	}
}

// BenchmarkGuardedOverhead measures the guarded path's price next to the
// fast path on the same solver: Solve (no guarantees), SolveContext with
// nothing armed (guard plumbing only), and SolveContext with the full
// ladder (watchdog + verification). The acceptance bar for the plumbing
// is ≤5% over Solve.
func BenchmarkGuardedOverhead(b *testing.B) {
	n := 20000
	l := gen.Layered(n, 200, 6, 0, 913)
	rhs := gen.RandVec(n, 914)
	x := make([]float64, n)
	build := func(opts Options) *Solver[float64] {
		opts.Workers, opts.Kind, opts.Reorder, opts.Adaptive = 0, Recursive, true, true
		s, err := Preprocess(l, opts)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.Run("solve", func(b *testing.B) {
		s := build(Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Solve(rhs, x)
		}
	})
	b.Run("context-bare", func(b *testing.B) {
		s := build(Options{})
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.SolveContext(ctx, rhs, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("context-full", func(b *testing.B) {
		s := build(Options{Validate: true, VerifyResidual: 1e-8, Refine: true, StallTimeout: 10 * time.Second})
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.SolveContext(ctx, rhs, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Length mismatches on the guarded path are errors, not panics.
func TestChaosSolveContextLengthMismatch(t *testing.T) {
	l := gen.Layered(100, 5, 3, 0, 912)
	s, err := Preprocess(l, Options{Workers: 2, Kind: Recursive, MinBlockRows: 64, Reorder: true, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SolveContext(context.Background(), make([]float64, 99), make([]float64, 100)); err == nil {
		t.Fatal("short b accepted")
	}
	if err := s.SolveContext(context.Background(), make([]float64, 100), make([]float64, 3)); err == nil {
		t.Fatal("short x accepted")
	}
}
