package kernels

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// chainStrict builds the strictly-lower part of a bidiagonal chain:
// component j depends on j-1 with weight 0.5, diag all 2. The serial
// dependency chain is the worst case for the guarded busy-waits.
func chainStrict(n int) (*sparse.CSC[float64], []float64) {
	colPtr := make([]int, n+1)
	rowIdx := make([]int, 0, n-1)
	val := make([]float64, 0, n-1)
	for j := 0; j < n; j++ {
		if j+1 < n {
			rowIdx = append(rowIdx, j+1)
			val = append(val, 0.5)
		}
		colPtr[j+1] = len(val)
	}
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = 2
	}
	return &sparse.CSC[float64]{Rows: n, Cols: n, ColPtr: colPtr, RowIdx: rowIdx, Val: val}, diag
}

// lowerCSR joins a strictly-lower CSC part and its diagonal into the
// lower CSR, diagonal last in each row, that the gather kernels read.
func lowerCSR[T sparse.Float](strict *sparse.CSC[T], diag []T) *sparse.CSR[T] {
	r := strict.ToCSR()
	n := len(diag)
	rowPtr := make([]int, n+1)
	colIdx := make([]int, 0, r.NNZ()+n)
	val := make([]T, 0, r.NNZ()+n)
	for i := 0; i < n; i++ {
		colIdx = append(append(colIdx, r.ColIdx[r.RowPtr[i]:r.RowPtr[i+1]]...), i)
		val = append(append(val, r.Val[r.RowPtr[i]:r.RowPtr[i+1]]...), diag[i])
		rowPtr[i+1] = len(val)
	}
	return &sparse.CSR[T]{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

func TestGuardedKernelsMatchSerial(t *testing.T) {
	n := 300
	strict, diag := chainStrict(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) + 1
	}
	want := make([]float64, n)
	w := append([]float64(nil), b...)
	TriSerialSolve(strict, diag, w, want, nil)

	info := levelset.FromLowerCSC(strict)
	strictCSR := strict.ToCSR()
	p := exec.NewSpinPool(4)
	defer p.Close()
	sched := NewMergedSchedule(info, 0, p.Workers())
	state := NewSyncFreeState(strict)

	check := func(name string, got []float64, ok bool) {
		t.Helper()
		if !ok {
			t.Fatalf("%s: guard tripped on a clean solve", name)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("%s: x[%d]=%g want %g", name, i, got[i], want[i])
			}
		}
	}

	x := make([]float64, n)
	copy(w, b)
	check("level-set", x, TriLevelSetSolve(p, strict, diag, info, w, x, exec.NewGuard()))
	copy(w, b)
	check("sync-free", x, TriSyncFreeSolve(p, state, strict, diag, w, x, exec.NewGuard()))
	copy(w, b)
	check("cusparse-like", x, TriCuSparseLikeSolve(p, sched, strictCSR, diag, w, x, exec.NewGuard()))
}

// syncFreeKernels are the guarded sync-free scenarios' inputs: the
// single-RHS kernel and the batch kernel at k = 2, which share the claim,
// spin, stall-report and panic-release protocol.
var syncFreeKernels = []struct {
	name string
	k    int
	run  func(p exec.Launcher, state *SyncFreeState, strict *sparse.CSC[float64], diag, w, x []float64, g *exec.Guard) bool
}{
	{"single", 1, func(p exec.Launcher, state *SyncFreeState, strict *sparse.CSC[float64], diag, w, x []float64, g *exec.Guard) bool {
		return TriSyncFreeSolve(p, state, strict, diag, w, x, g)
	}},
	{"batch", 2, func(p exec.Launcher, state *SyncFreeState, strict *sparse.CSC[float64], diag, w, x []float64, g *exec.Guard) bool {
		return TriSyncFreeSolveBatch(p, state, strict, diag, w, x, 2, g)
	}},
}

// A worker that panics mid-chain would classically deadlock the sync-free
// kernel: its dependents' in-degrees never drain and every other worker
// spins forever. The guarded kernel must instead trip the guard, release
// the spinners, and re-raise the panic on the caller.
func TestSyncFreeGuardedPanicReleasesSpinners(t *testing.T) {
	for _, kern := range syncFreeKernels {
		t.Run(kern.name, func(t *testing.T) {
			n, k := 300, kern.k
			strict, diag := chainStrict(n)
			p := exec.NewSpinPool(4)
			defer p.Close()
			state := NewSyncFreeState(strict)
			w := make([]float64, n*k)
			for i := range w {
				w[i] = 1
			}
			x := make([]float64, n/2*k) // component n/2 panics with an index error
			g := exec.NewGuard()

			done := make(chan any, 1)
			go func() {
				var r any
				func() {
					defer func() { r = recover() }()
					kern.run(p, state, strict, diag, w, x, g)
				}()
				done <- r
			}()
			select {
			case r := <-done:
				if r == nil {
					t.Fatal("expected the out-of-range panic to propagate")
				}
			case <-time.After(30 * time.Second):
				t.Fatal("guarded sync-free solve deadlocked after a worker panic")
			}
			if !g.Tripped() {
				t.Fatal("panicking worker did not trip the guard")
			}

			// The pool survives for an untruncated retry.
			x = make([]float64, n*k)
			for i := range w {
				w[i] = 1
			}
			if !kern.run(p, state, strict, diag, w, x, exec.NewGuard()) {
				t.Fatal("retry after panic tripped")
			}
		})
	}
}

// An externally tripped guard (cancellation, watchdog) releases spinning
// workers and reports the head of the stalled dependency chain.
func TestSyncFreeGuardedStallDiagnostics(t *testing.T) {
	for _, kern := range syncFreeKernels {
		t.Run(kern.name, func(t *testing.T) {
			n, k := 200, kern.k
			strict, diag := chainStrict(n)
			state := NewSyncFreeState(strict)
			state.base[40]++ // phantom dependency: 40 and everything after stalls
			p := exec.NewSpinPool(4)
			defer p.Close()
			w := make([]float64, n*k)
			x := make([]float64, n*k)
			g := exec.NewGuard()
			cause := errors.New("chaos: external cancel")
			go func() {
				time.Sleep(30 * time.Millisecond)
				g.Trip(cause)
			}()
			if kern.run(p, state, strict, diag, w, x, g) {
				t.Fatal("stalled solve reported success")
			}
			if !errors.Is(g.Cause(), cause) {
				t.Fatalf("cause: %v", g.Cause())
			}
			row, indeg, ok := g.Stall()
			if !ok || row != 40 || indeg <= 0 {
				t.Fatalf("stall diagnostic row=%d indeg=%d ok=%v, want row 40 with positive in-degree", row, indeg, ok)
			}
		})
	}
}

// A pre-tripped guard aborts every guarded kernel, batch kernels
// included, before it launches.
func TestGuardedKernelsHonourPreTrippedGuard(t *testing.T) {
	n := 50
	strict, diag := chainStrict(n)
	info := levelset.FromLowerCSC(strict)
	p := exec.NewSpinPool(2)
	defer p.Close()
	g := exec.NewGuard()
	g.Trip(errors.New("already cancelled"))
	w := make([]float64, n)
	x := make([]float64, n)
	if TriLevelSetSolve(p, strict, diag, info, w, x, g) {
		t.Fatal("level-set ran under a tripped guard")
	}
	if TriSyncFreeSolve(p, NewSyncFreeState(strict), strict, diag, w, x, g) {
		t.Fatal("sync-free ran under a tripped guard")
	}
	if TriCuSparseLikeSolve(p, NewMergedSchedule(info, 0, 2), strict.ToCSR(), diag, w, x, g) {
		t.Fatal("cusparse-like ran under a tripped guard")
	}
	if TriLevelSetSolveBatch(p, strict, diag, info, w, x, 1, g) {
		t.Fatal("batch level-set ran under a tripped guard")
	}
	if TriSyncFreeSolveBatch(p, NewSyncFreeState(strict), strict, diag, w, x, 1, g) {
		t.Fatal("batch sync-free ran under a tripped guard")
	}
	if TriCuSparseLikeSolveBatch(p, NewMergedSchedule(info, 0, 2), strict.ToCSR(), diag, w, x, 1, g) {
		t.Fatal("batch cusparse-like ran under a tripped guard")
	}
}

// The serial kernels, scatter and gather, single and batch, take one
// guard progress step per serialGuardCols columns (rows for the gather)
// and stop at the first chunk boundary after the guard trips, so a
// watchdog sees a long serial leaf progress and a deadline can interrupt
// it.
func TestSerialKernelsStepAndPollGuard(t *testing.T) {
	n := 3*serialGuardCols + 5
	strict, diag := chainStrict(n)
	lower := lowerCSR(strict, diag)
	for _, kern := range []struct {
		name string
		k    int
		run  func(w, x []float64, g *exec.Guard) bool
	}{
		{"scatter", 1, func(w, x []float64, g *exec.Guard) bool { return TriSerialSolve(strict, diag, w, x, g) }},
		{"scatter-batch", 2, func(w, x []float64, g *exec.Guard) bool { return TriSerialSolveBatch(strict, diag, w, x, 2, g) }},
		{"gather", 1, func(w, x []float64, g *exec.Guard) bool { return SerialSolveCSR(lower, w, x, g) }},
		{"gather-batch", 2, func(w, x []float64, g *exec.Guard) bool { return SerialSolveCSRBatch(lower, w, x, 2, g) }},
	} {
		k, run := kern.k, kern.run
		ones := func() []float64 {
			w := make([]float64, n*k)
			for i := range w {
				w[i] = 1
			}
			return w
		}
		want := make([]float64, n*k)
		if !run(ones(), want, nil) {
			t.Fatalf("%s: unguarded solve reported a trip", kern.name)
		}
		x := make([]float64, n*k)
		g := exec.NewGuard()
		if !run(ones(), x, g) {
			t.Fatalf("%s: clean guarded solve tripped", kern.name)
		}
		if got := g.Progress(); got != 4 {
			t.Fatalf("%s: %d progress steps over %d columns, want 4", kern.name, got, n)
		}
		for i := range x {
			if x[i] != want[i] {
				t.Fatalf("%s: guarded x[%d]=%g, unguarded %g", kern.name, i, x[i], want[i])
			}
		}

		g = exec.NewGuard()
		g.Trip(errors.New("deadline"))
		for i := range x {
			x[i] = math.NaN()
		}
		if run(ones(), x, g) {
			t.Fatalf("%s: solve under a tripped guard reported success", kern.name)
		}
		if math.IsNaN(x[(serialGuardCols-1)*k]) || !math.IsNaN(x[serialGuardCols*k]) {
			t.Fatalf("%s: tripped solve did not stop at the first chunk boundary", kern.name)
		}
	}
}
