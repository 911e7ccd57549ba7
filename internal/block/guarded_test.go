package block

import (
	"context"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// TestSolveContextAllocs pins what arming the guard costs in allocations:
// a guarded solve under a deadline context with the stall watchdog and
// the verification ladder on, as every daemon solve runs. It allocates
// the guard and the context.AfterFunc hook (its callback, its context
// and its stop function), four objects; the session's watchdog timer is
// made once and re-armed, and the verification pass and the in-place
// gather leaf allocate nothing.
func TestSolveContextAllocs(t *testing.T) {
	l := gen.Layered(2000, 40, 6, 0.1, 901)
	o := Defaults(exec.DefaultDevices()[1])
	o.StallTimeout = 30 * time.Second
	o.VerifyResidual = 1e-8
	o.Refine = true
	s, err := Preprocess(l, o)
	if err != nil {
		t.Fatal(err)
	}
	ses := s.NewSession()
	b := gen.RandVec(l.Rows, 902)
	x := make([]float64, l.Rows)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	allocs := testing.AllocsPerRun(100, func() {
		if err := ses.SolveContext(ctx, b, x); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("SolveContext allocates %.0f objects per call", allocs)
	if allocs > guardedSolveAllocs {
		t.Fatalf("SolveContext allocates %.0f objects per call, want at most %d", allocs, guardedSolveAllocs)
	}
}

// guardedSolveAllocs is TestSolveContextAllocs' ceiling.
const guardedSolveAllocs = 4

// TestWatchdogAcrossSolves: every guarded solve of a session re-arms the
// session's one watchdog, whose ticks run on another goroutine while the
// solving goroutine arms and disarms it. The test owns the watchdog's
// clock and fires its ticks, so no wall-clock timing decides the outcome:
//
//   - a ticker goroutine fires ticks throughout the solves; before a tick
//     that will see the solve's progress move, the clock jumps a whole
//     StallTimeout, so only the progress check keeps that tick from
//     tripping;
//   - between solves the clock jumps ten timeouts, so a tick that fires
//     after the next solve arms, before it moves, still measures from
//     that arming, as a tick left over from the previous solve does;
//   - each answer is the plain solve's bit for bit;
//   - finally, with no progress, a tick a whole timeout after arming
//     trips the guard, so the ticks above did run on the test's clock.
func TestWatchdogAcrossSolves(t *testing.T) {
	l := gen.Layered(20_000, 40, 6, 0.1, 4110)
	o := Defaults(exec.DefaultDevices()[1])
	o.StallTimeout = 16 * time.Millisecond
	s, err := Preprocess(l, o)
	if err != nil {
		t.Fatal(err)
	}
	const k = 16
	b := gen.RandVec(l.Rows*k, 41)
	want := make([]float64, len(b))
	s.SolveBatch(b, want, k)
	ses := s.NewSession()
	w := &watchdog{}
	var now time.Time // the watchdog's clock; read and moved only under w.mu
	jumps := 0        // ticks that saw progress after a whole timeout
	w.clock = func() time.Time {
		if w.g != nil && w.g.Progress() != w.last {
			now = now.Add(o.StallTimeout)
			jumps++
		}
		return now
	}
	ses.watchdog = w
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		ticks := 0
		for {
			select {
			case <-stop:
				done <- ticks
				return
			default:
			}
			w.fire()
			ticks++
			time.Sleep(50 * time.Microsecond)
		}
	}()
	x := make([]float64, len(b))
	for i := 0; i < 50; i++ {
		w.mu.Lock()
		now = now.Add(10 * o.StallTimeout)
		w.mu.Unlock()
		err := ses.SolveBatchContext(context.Background(), b, x, k)
		if err != nil {
			close(stop)
			<-done
			t.Fatalf("solve %d: %v", i, err)
		}
		for j := range x {
			if x[j] != want[j] {
				close(stop)
				<-done
				t.Fatalf("solve %d: x[%d] = %v, want %v", i, j, x[j], want[j])
			}
		}
	}
	close(stop)
	ticks := <-done
	t.Logf("%d ticks over 50 solves, %d of them mid-solve after a whole timeout", ticks, jumps)

	g := exec.NewGuard()
	w.arm(g, o.StallTimeout)
	w.mu.Lock()
	now = now.Add(o.StallTimeout)
	w.mu.Unlock()
	w.fire()
	w.disarm()
	if !g.Tripped() || g.Cause() != errStalled {
		t.Fatalf("a tick a whole timeout after arming, with no progress, left the guard tripped=%v cause=%v", g.Tripped(), g.Cause())
	}
}

// BenchmarkGuardedSolve splits what the guarded path adds to a solve on
// the two matrices of the benchmark's serve workload (seed 4100), each a
// single serial gather leaf at the shipped defaults: plain is
// Session.Solve; guard is SolveContext under a deadline context with the
// stall watchdog armed and no verification; guard+verify adds the
// residual check the daemon runs on every lone request.
func BenchmarkGuardedSolve(bm *testing.B) {
	for _, m := range []struct {
		name string
		l    *sparse.CSR[float64]
	}{
		{"grid", gen.GridLaplacian5(120, 120, 4109)},
		{"layered", gen.Layered(20_000, 40, 6, 0.1, 4110)},
	} {
		o := Defaults(exec.DefaultDevices()[1])
		o.StallTimeout = 30 * time.Second
		s, err := Preprocess(m.l, o)
		if err != nil {
			bm.Fatal(err)
		}
		b := gen.RandVec(m.l.Rows, 7)
		x := make([]float64, m.l.Rows)
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		for _, c := range []struct {
			name    string
			guarded bool
			tol     float64
		}{{"plain", false, 0}, {"guard", true, 0}, {"guard+verify", true, 1e-8}} {
			s.opts.VerifyResidual = c.tol
			ses := s.NewSession()
			bm.Run(m.name+"/"+c.name, func(bm *testing.B) {
				for bm.Loop() {
					if !c.guarded {
						ses.Solve(b, x)
					} else if err := ses.SolveContext(ctx, b, x); err != nil {
						bm.Fatal(err)
					}
				}
			})
		}
		cancel()
	}
}
