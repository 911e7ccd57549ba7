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
// session's one watchdog timer, whose ticks run on the timer's goroutine
// while the solving goroutine arms and disarms it. With ticks shorter
// than a solve, so that some fire mid-solve and some race the disarm, no
// tick trips a solve that makes progress, and each answer is the plain
// solve's bit for bit.
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
	x := make([]float64, len(b))
	for i := 0; i < 50; i++ {
		if err := ses.SolveBatchContext(context.Background(), b, x, k); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		for j := range x {
			if x[j] != want[j] {
				t.Fatalf("solve %d: x[%d] = %v, want %v", i, j, x[j], want[j])
			}
		}
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
