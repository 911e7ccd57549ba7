package blocksptrsv_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	sptrsv "github.com/sss-lab/blocksptrsv"
)

// settledGoroutines collects garbage until the goroutine count drops to
// want or, with want < 0, stops falling for 200 ms, polling for at most
// 10 s. Pools released by a cleanup exit their workers asynchronously,
// so one collection is not enough.
func settledGoroutines(want int) int {
	n, flat := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if want >= 0 && n <= want || want < 0 && flat == 20 {
			break
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m < n {
			flat = 0
		} else {
			flat++
		}
		n = m
	}
	return n
}

// solveAndDrop runs one solve on s so its pool has launched (and may
// retain the last launch body), then lets s go out of scope.
func solveAndDrop(s interface{ Solve(b, x []float64) }, n int) {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	s.Solve(b, make([]float64, n))
}

// TestDroppedSolversReleasePools pins the lifetime of pools the library
// creates on the caller's behalf: once the Analyze, LoadSolver or
// NewSolver result that owns such a pool is unreachable, the pool's
// resident workers exit. Solvers still referenced keep solving after
// the collections that release the others, and a pool the caller passed
// in Options.Pool is never closed by the library.
func TestDroppedSolversReleasePools(t *testing.T) {
	l := buildRandomLower(600, 0.02, 5)
	const workers = 3 // each implicit SpinPool keeps workers-1 residents

	var plan bytes.Buffer
	kept, err := sptrsv.Analyze(l, sptrsv.DefaultOptions(workers))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kept.WriteTo(&plan); err != nil {
		t.Fatal(err)
	}
	keptLoaded, err := sptrsv.LoadSolver[float64](bytes.NewReader(plan.Bytes()), workers)
	if err != nil {
		t.Fatal(err)
	}
	keptBaseline, err := sptrsv.NewSolver("sync-free", l, workers)
	if err != nil {
		t.Fatal(err)
	}
	callerPool := sptrsv.NewSpinPool(workers)
	defer callerPool.Close()

	start := settledGoroutines(-1)

	for i := 0; i < 4; i++ {
		s, err := sptrsv.Analyze(l, sptrsv.DefaultOptions(workers))
		if err != nil {
			t.Fatal(err)
		}
		solveAndDrop(s, l.Rows)

		s, err = sptrsv.LoadSolver[float64](bytes.NewReader(plan.Bytes()), workers)
		if err != nil {
			t.Fatal(err)
		}
		solveAndDrop(s, l.Rows)
	}
	for _, name := range sptrsv.Algorithms() {
		s, err := sptrsv.NewSolver(name, l, workers)
		if err != nil {
			t.Fatal(err)
		}
		solveAndDrop(s, l.Rows)
	}
	withCallerPool := sptrsv.DefaultOptions(workers)
	withCallerPool.Pool = callerPool
	s, err := sptrsv.Analyze(l, withCallerPool)
	if err != nil {
		t.Fatal(err)
	}
	solveAndDrop(s, l.Rows)

	if got := settledGoroutines(start); got > start {
		t.Fatalf("goroutines = %d after dropping every solver, want <= %d: library-created pools leak their workers", got, start)
	}

	b := make([]float64, l.Rows)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	for _, s := range []interface{ Solve(b, x []float64) }{kept, keptLoaded, keptBaseline} {
		x := make([]float64, l.Rows)
		s.Solve(b, x)
		if r := publicResidual(l, x, b); r > 1e-9 {
			t.Errorf("%T: residual %g after the collections that released the dropped solvers", s, r)
		}
	}
	// The caller's pool is still open: a closed SpinPool panics on launch.
	ran := false
	callerPool.Run(func(w int) {
		if w == 0 {
			ran = true
		}
	})
	if !ran {
		t.Error("caller-supplied pool did not run its launch")
	}
}
