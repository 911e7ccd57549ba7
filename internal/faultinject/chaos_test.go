//go:build faultinject

package faultinject_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/faultinject"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
)

// The tagged chaos suite: every fault the hooks can inject, driven through
// the public solve path, each asserting its degradation rung. Run with
//
//	go test -tags faultinject ./internal/faultinject
//
// The default-build twin of this suite lives in internal/block.

func buildSolver(t *testing.T, opts block.Options) (*block.Solver[float64], []float64, []float64) {
	t.Helper()
	n := 400
	l := gen.Layered(n, 20, 3, 0, 1001)
	s, err := block.Preprocess(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := gen.RandVec(n, 1002)
	ref := make([]float64, n)
	kernels.SerialSolveCSR(l, b, ref, nil)
	return s, b, ref
}

func TestInjectedBlockPanicPropagates(t *testing.T) {
	defer faultinject.Reset()
	s, b, ref := buildSolver(t, block.Options{Workers: 4, Kind: block.Recursive,
		MinBlockRows: 64, Reorder: true})
	x := make([]float64, len(b))

	faultinject.ArmPanic("tri-block", 0)
	r := func() (r any) {
		defer func() { r = recover() }()
		_ = s.SolveContext(context.Background(), b, x)
		return nil
	}()
	msg, ok := r.(string)
	if !ok || !strings.Contains(msg, "panic at tri-block[0]") {
		t.Fatalf("panic value: %v", r)
	}

	faultinject.Reset()
	if err := s.SolveContext(context.Background(), b, x); err != nil {
		t.Fatalf("solve after disarm: %v", err)
	}
	assertMatches(t, x, ref)
}

func TestInjectedInDegreeCorruptionTripsWatchdog(t *testing.T) {
	defer faultinject.Reset()
	s, b, _ := buildSolver(t, block.Options{Workers: 4, Kind: block.Recursive,
		MinBlockRows: 1 << 20, Reorder: false,
		ForceTri: kernels.TriSyncFree, StallTimeout: 100 * time.Millisecond})
	x := make([]float64, len(b))

	faultinject.ArmCorruptInDegree("sync-free", 17, 1)
	start := time.Now()
	err := s.SolveContext(context.Background(), b, x)
	var se *block.StallError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *StallError", err)
	}
	if !se.HasRow || se.Row > 17 {
		t.Fatalf("stall row %d (hasRow=%v), want at or before 17", se.Row, se.HasRow)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("abort took %v", elapsed)
	}
}

func TestInjectedPoisonTriggersFallback(t *testing.T) {
	defer faultinject.Reset()
	s, b, ref := buildSolver(t, block.Options{Workers: 4, Kind: block.Recursive,
		MinBlockRows: 64, Reorder: true, VerifyResidual: 1e-8})
	x := make([]float64, len(b))

	faultinject.ArmPoison("solution", 3, 1e30)
	if err := s.SolveContext(context.Background(), b, x); err != nil {
		t.Fatalf("fallback should have recovered: %v", err)
	}
	st := s.Stats()
	// Refinement corrects a linear error exactly in exact arithmetic, but
	// against a 1e30 poison the update cancels catastrophically (~1e14 of
	// rounding error survives), so recovery reaches the serial fallback.
	if st.Fallbacks != 1 {
		t.Fatalf("fallbacks=%d, want 1", st.Fallbacks)
	}
	assertMatches(t, x, ref)
}

func TestInjectedDelayIsBenign(t *testing.T) {
	defer faultinject.Reset()
	s, b, ref := buildSolver(t, block.Options{Workers: 4, Kind: block.Recursive,
		MinBlockRows: 1 << 20, Reorder: false,
		ForceTri: kernels.TriSyncFree, StallTimeout: 2 * time.Second})
	x := make([]float64, len(b))

	// A worker 50ms late must not trip anything: the claim protocol
	// tolerates slow workers, and 50ms of silence is far below the
	// watchdog deadline.
	faultinject.ArmDelay("sync-free", 2, 50*time.Millisecond)
	if err := s.SolveContext(context.Background(), b, x); err != nil {
		t.Fatalf("delayed solve: %v", err)
	}
	assertMatches(t, x, ref)
}

// TestArmSlowThrottles pins the queue-delay hook the daemon chaos suite
// leans on: unarmed Slow is free, armed Slow sleeps on every call, and
// Reset disarms it.
func TestArmSlowThrottles(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	start := time.Now()
	faultinject.Slow("daemon-solve")
	faultinject.Slow("daemon-solve")
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("unarmed Slow took %v", d)
	}
	faultinject.ArmSlow("daemon-solve", 30*time.Millisecond)
	start = time.Now()
	faultinject.Slow("daemon-solve")
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("armed Slow returned after %v, want ~30ms", d)
	}
	faultinject.Slow("other-site") // arming one site leaves others free
	faultinject.Reset()
	start = time.Now()
	faultinject.Slow("daemon-solve")
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("Slow survived Reset: %v", d)
	}
}

func assertMatches(t *testing.T, x, ref []float64) {
	t.Helper()
	for i := range x {
		if math.Abs(x[i]-ref[i]) > 1e-8*(1+math.Abs(ref[i])) {
			t.Fatalf("x[%d]=%g want %g", i, x[i], ref[i])
		}
	}
}
