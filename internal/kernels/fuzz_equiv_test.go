package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Differential fuzzing of the optimized kernels against TriSerialSolve
// (DESIGN.md §6.9): the unrolled gathers (cusparse-like's two
// accumulators, the batch gather's groups of four) reassociate
// each row's subtraction chain, so kernel results may differ from the
// serial scatter reference by rounding — but only by rounding. The
// tolerances are the documented reassociation bounds: splitting a
// length-m sum in two changes the result by O(m·ε) relative, and forward
// substitution on the well-conditioned generators below amplifies it by a
// small constant. With m ≤ 96 that is covered by 64·m·ε in the elements'
// own precision (ε = 2⁻⁵² for float64, 2⁻²³ for float32) — a few hundred
// ULPs of headroom, far below any real kernel bug, which produces either
// an exact mismatch (wrong entry read) or an O(1) error (dependency
// order violated).

// fuzzTolerance is the documented equivalence bound for one solve.
func fuzzTolerance[T sparse.Float](n int) float64 {
	var eps float64
	switch any(T(0)).(type) {
	case float32:
		eps = 0x1p-23
	default:
		eps = 0x1p-52
	}
	return 64 * float64(n) * eps
}

// buildRandLower is randLower at any element type: strictly-lower entries
// shrink with distance from the diagonal, the diagonal sits near one, so
// forward substitution stays well-conditioned and the reassociation bound
// above is the only slack the comparison needs.
func buildRandLower[T sparse.Float](rng *rand.Rand, n int, density float64) *sparse.CSR[T] {
	b := sparse.NewBuilder[T](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if rng.Float64() < density {
				b.Add(i, j, T(0.5*rng.NormFloat64()/float64(1+i-j)))
			}
		}
		b.Add(i, i, T(1+rng.Float64()))
	}
	return b.BuildCSR()
}

// ladderLens are the strictly-lower entry counts buildLadderLower cycles
// through: each short-row form of SerialSolveCSRBatch (0–3 entries), one
// group of four, and a group of four with a tail of three.
var ladderLens = [...]int{0, 1, 2, 3, 4, 7}

// buildLadderLower is a lower system whose row i has min(i,
// lens[i%len(lens)]) strictly-lower entries in random columns, with
// buildRandLower's values. Over ladderLens every row form of the batch
// gather runs whatever the fuzzer's density; over its first four, only
// the one-pass forms do.
func buildLadderLower[T sparse.Float](rng *rand.Rand, n int, lens []int) *sparse.CSR[T] {
	b := sparse.NewBuilder[T](n, n)
	for i := 0; i < n; i++ {
		for _, j := range rng.Perm(i)[:min(i, lens[i%len(lens)])] {
			b.Add(i, j, T(0.5*rng.NormFloat64()/float64(1+i-j)))
		}
		b.Add(i, i, T(1+rng.Float64()))
	}
	return b.BuildCSR()
}

// checkKernelEquivalence solves one random system with every optimized
// SpTRSV kernel, the CSR gathers included, and compares each result to
// the TriSerialSolve reference; the guard-taking kernels run with a nil
// and with a live guard. The ordered gather is held to the in-order one
// bit for bit (checkOrderedGathers).
func checkKernelEquivalence[T sparse.Float](t *testing.T, seed int64, n, workers int, density float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := buildRandLower[T](rng, n, density)
	strictCSC, diag, err := sparse.SplitDiagCSC(l.ToCSC())
	if err != nil {
		t.Fatal(err)
	}
	info := levelset.FromLowerCSR(l)
	b := make([]T, n)
	for i := range b {
		b[i] = T(rng.NormFloat64())
	}

	want := make([]T, n)
	w := append([]T(nil), b...)
	TriSerialSolve(strictCSC, diag, w, want, nil)

	tol := fuzzTolerance[T](n)
	checkRef := func(name string, x, want []T) {
		t.Helper()
		for i := range want {
			got, ref := float64(x[i]), float64(want[i])
			if math.Abs(got-ref) > tol*(1+math.Abs(ref)) {
				t.Fatalf("%T %s: seed=%d n=%d workers=%d x[%d]=%g want %g (tol %g)",
					T(0), name, seed, n, workers, i, got, ref, tol)
			}
		}
	}
	check := func(name string, x []T) {
		t.Helper()
		checkRef(name, x, want)
	}
	// batchGather solves k copies of b with SerialSolveCSRBatch in place
	// (b and x the same slice), at k = 2, 3 and 16, and checks every
	// column against ref.
	batchGather := func(m *sparse.CSR[T], ref []T, g *exec.Guard) {
		t.Helper()
		for _, k := range []int{2, 3, 16} {
			xk := make([]T, n*k)
			for i := range xk {
				xk[i] = b[i/k]
			}
			if !SerialSolveCSRBatch(m, xk, xk, k, g) {
				t.Fatalf("%T serial-csr-batch: seed=%d n=%d k=%d: untripped guard aborted the solve", T(0), seed, n, k)
			}
			col := make([]T, n)
			for r := 0; r < k; r++ {
				for i := range col {
					col[i] = xk[i*k+r]
				}
				checkRef(fmt.Sprintf("serial-csr-batch k=%d", k), col, ref)
			}
		}
	}

	p := exec.NewPool(workers)
	strictCSR := strictCSC.ToCSR()
	sched := NewMergedSchedule(info, 0, workers)
	guarded := []struct {
		name  string
		solve func(p exec.Launcher, w, x []T, g *exec.Guard) bool
	}{
		{"level-set", func(p exec.Launcher, w, x []T, g *exec.Guard) bool {
			return TriLevelSetSolve(p, strictCSC, diag, info, w, x, g)
		}},
		{"sync-free", func(p exec.Launcher, w, x []T, g *exec.Guard) bool {
			return TriSyncFreeSolve(p, NewSyncFreeState(strictCSC), strictCSC, diag, w, x, g)
		}},
		{"cusparse-like", func(p exec.Launcher, w, x []T, g *exec.Guard) bool {
			return TriCuSparseLikeSolve(p, sched, strictCSR, diag, w, x, g)
		}},
	}
	// One worker runs every launch inline, so the schedule — and with it
	// the order of the atomic scatter adds — is fixed and a nil-guard and
	// a live-guard run must agree bit for bit. On workers > 1 the scatter
	// order varies between runs, so both are held to the serial tolerance.
	// A live guard nobody trips must let every kernel finish.
	serialPool := exec.NewPool(1)
	for _, kern := range guarded {
		solve := func(p exec.Launcher, g *exec.Guard) []T {
			t.Helper()
			x := make([]T, n)
			w = append(w[:0], b...)
			if !kern.solve(p, w, x, g) {
				t.Fatalf("%T %s: seed=%d n=%d workers=%d: untripped guard aborted the solve", T(0), kern.name, seed, n, workers)
			}
			return x
		}
		check(kern.name, solve(p, nil))
		check(kern.name+"/guarded", solve(p, exec.NewGuard()))
		plain, live := solve(serialPool, nil), solve(serialPool, exec.NewGuard())
		for i := range plain {
			if math.Float64bits(float64(plain[i])) != math.Float64bits(float64(live[i])) {
				t.Fatalf("%T %s: seed=%d n=%d: guarded x[%d]=%g differs from unguarded %g",
					T(0), kern.name, seed, n, i, live[i], plain[i])
			}
		}
	}

	// The gather forms on L as given, with a nil and a live guard: the
	// single-RHS kernel, and the batch kernel in place. The single-RHS
	// gather subtracts each row's entries in column order, as the scatter
	// reference does, so with either guard it agrees with the reference
	// bit for bit.
	for _, g := range []*exec.Guard{nil, exec.NewGuard()} {
		x := make([]T, n)
		if !SerialSolveCSR(l, b, x, g) {
			t.Fatalf("%T serial-csr: seed=%d n=%d: untripped guard aborted the solve", T(0), seed, n)
		}
		if !slices.Equal(x, want) {
			t.Fatalf("%T serial-csr: seed=%d n=%d guarded=%v: differs from the scatter reference", T(0), seed, n, g != nil)
		}
		batchGather(l, want, g)
	}
	// The batch gather again on a ladder of row lengths: rows of fewer
	// than four strictly-lower entries take its one-pass forms, longer
	// ones its groups of four.
	ladder := buildLadderLower[T](rng, n, ladderLens[:])
	lstrict, ldiag, err := sparse.SplitDiagCSC(ladder.ToCSC())
	if err != nil {
		t.Fatal(err)
	}
	lwant := make([]T, n)
	TriSerialSolve(lstrict, ldiag, append([]T(nil), b...), lwant, nil)
	batchGather(ladder, lwant, nil)

	// The ordered gather, on both systems, over a random order of their
	// rows that respects every dependency.
	checkOrderedGathers(t, rng, l, b)
	checkOrderedGathers(t, rng, ladder, b)

	// Each single-RHS kernel against its batch twin where neither
	// reassociates: the scatters, the diagonal-only kernels, and the
	// gathers on rows of fewer than four strictly-lower entries, which
	// the batch gather computes in one pass in entry order.
	short := buildLadderLower[T](rng, n, ladderLens[:4])
	checkBatchTwin(t, "serial", b,
		func(b, x []T) { TriSerialSolve(strictCSC, diag, slices.Clone(b), x, nil) },
		func(b, x []T, k int) { TriSerialSolveBatch(strictCSC, diag, slices.Clone(b), x, k, nil) })
	checkBatchTwin(t, "completely-parallel", b,
		func(b, x []T) { TriDiagOnlySolve(p, diag, b, x) },
		func(b, x []T, k int) { TriDiagOnlySolveBatch(p, diag, b, x, k) })
	checkBatchTwin(t, "serial-csr", b,
		func(b, x []T) { SerialSolveCSR(short, b, x, nil) },
		func(b, x []T, k int) { SerialSolveCSRBatch(short, b, x, k, nil) })
}

// checkBatchTwin solves k right-hand sides at once with batch, at k = 2,
// 3 and 16, column r of them b with r added to every entry, and holds
// each column to single's answer for that column bit for bit: both
// kernels subtract in the same order and apply the diagonal as one
// reciprocal. Neither kernel may write its b.
func checkBatchTwin[T sparse.Float](t *testing.T, name string, b []T, single func(b, x []T), batch func(b, x []T, k int)) {
	t.Helper()
	n := len(b)
	bc, want, got := make([]T, n), make([]T, n), make([]T, n)
	for _, k := range []int{2, 3, 16} {
		bk, xk := make([]T, n*k), make([]T, n*k)
		for i := range bk {
			bk[i] = b[i/k] + T(i%k)
		}
		batch(bk, xk, k)
		for r := 0; r < k; r++ {
			for i := range bc {
				bc[i], got[i] = bk[i*k+r], xk[i*k+r]
			}
			single(bc, want)
			if !slices.Equal(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Fatalf("%T %s batch k=%d n=%d: column %d x[%d]=%g differs from the single-RHS kernel's %g",
					T(0), name, k, n, r, i, got[i], want[i])
			}
		}
	}
}

// randomTopoOrder is a random order of l's rows in which every row comes
// after each row it reads: Kahn's algorithm, taking a random ready row
// each step.
func randomTopoOrder[T sparse.Float](rng *rand.Rand, l *sparse.CSR[T]) []int {
	n := l.Rows
	indeg := make([]int, n)
	readers := make([][]int, n)
	for i := 0; i < n; i++ {
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]-1; k++ {
			indeg[i]++
			readers[l.ColIdx[k]] = append(readers[l.ColIdx[k]], i)
		}
	}
	var ready, ord []int
	for i := range indeg {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		j := rng.Intn(len(ready))
		i := ready[j]
		ready[j] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		ord = append(ord, i)
		for _, r := range readers[i] {
			if indeg[r]--; indeg[r] == 0 {
				ready = append(ready, r)
			}
		}
	}
	return ord
}

// checkOrderedGathers holds SerialSolveCSROrdered, over l's rows in a
// random dependency order, to SerialSolveCSR on l bit for bit, with a
// nil and a live guard, with b and x apart and the same slice.
func checkOrderedGathers[T sparse.Float](t *testing.T, rng *rand.Rand, l *sparse.CSR[T], b []T) {
	t.Helper()
	n := l.Rows
	ord := randomTopoOrder(rng, l)
	rows := &sparse.CSR[T]{Rows: n, Cols: n, RowPtr: []int{0}}
	for _, i := range ord {
		lo, hi := l.RowPtr[i], l.RowPtr[i+1]
		rows.ColIdx = append(rows.ColIdx, l.ColIdx[lo:hi]...)
		rows.Val = append(rows.Val, l.Val[lo:hi]...)
		rows.RowPtr = append(rows.RowPtr, len(rows.ColIdx))
	}
	want := make([]T, n)
	SerialSolveCSR(l, b, want, nil)
	for _, g := range []*exec.Guard{nil, exec.NewGuard()} {
		got, aliased := make([]T, n), slices.Clone(b)
		if !SerialSolveCSROrdered(rows, ord, b, got, g) || !SerialSolveCSROrdered(rows, ord, aliased, aliased, g) {
			t.Fatalf("%T serial-csr-ordered n=%d: untripped guard aborted the solve", T(0), n)
		}
		if !slices.Equal(got, want) || !slices.Equal(aliased, want) {
			t.Fatalf("%T serial-csr-ordered n=%d guarded=%v: differs from the in-order gather (apart %v, aliased %v)",
				T(0), n, g != nil, slices.Equal(got, want), slices.Equal(aliased, want))
		}
	}
}

// FuzzKernelEquivalence fuzzes the optimized kernels against the serial
// reference at both element types on the same generated system.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(10), uint8(0))
	f.Add(int64(53), uint8(64), uint8(15), uint8(2))
	f.Add(int64(99), uint8(96), uint8(60), uint8(3))
	f.Add(int64(7), uint8(17), uint8(95), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, densityRaw, workersRaw uint8) {
		n := 1 + int(nRaw)%96
		density := float64(densityRaw%100) / 100
		workers := 1 + int(workersRaw)%4
		checkKernelEquivalence[float64](t, seed, n, workers, density)
		checkKernelEquivalence[float32](t, seed, n, workers, density)
	})
}
