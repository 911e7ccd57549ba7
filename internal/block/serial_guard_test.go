package block

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// serialLeaf is one whole-matrix serial leaf timed for the guard tests:
// k right-hand sides in b, and d, the best of two plain SolveBatch times.
type serialLeaf struct {
	name string
	s    *Solver[float64]
	l    *sparse.CSR[float64]
	k    int
	b    []float64
	d    time.Duration
}

// serialLeaves builds two 16k-row matrices as one serial leaf each. The
// banded one, with 128 dependencies per row, is forced to the serial
// kernel as one un-split triangle and runs the CSC scatter, the form of
// forced plans; the default path, which sends every serial leaf of its
// walk to the gather, would not make one. The layered one, with 128
// dependencies per row over 1,024 levels, is a leaf the walk sends to
// serial whole, so it runs the CSR gather on the caller's matrix in
// place. For each, k
// doubles from 8 until d reaches 80 ms (or k reaches 128), so a stall
// timeout of d/8 stays far above a preemption of the solving thread on
// any host. Each row does 128·k multiply-adds against k copied values,
// so the solve's O(n·k) vector copies stay two orders of magnitude
// below d.
func serialLeaves(t *testing.T) []serialLeaf {
	t.Helper()
	banded := gen.Banded(16_000, 128, 1, 31)
	layered := gen.Layered(16_000, 1024, 128, 0, 33)
	var leaves []serialLeaf
	for _, c := range []struct {
		name   string
		l      *sparse.CSR[float64]
		gather bool
	}{{"banded scatter", banded, false}, {"layered gather", layered, true}} {
		o := Defaults(exec.Device{Name: "test", Workers: 2, BlockFactor: 1024})
		if !c.gather {
			o.ForceTri = kernels.TriSerial
			o.MinBlockRows = c.l.Rows + 1
		}
		s, err := Preprocess(c.l, o)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumTriBlocks() != 1 || s.tris[0].kernel != kernels.TriSerial {
			t.Fatalf("%s: want one serial leaf, got %v", c.name, s.TriKernelCounts())
		}
		if gather := s.tris[0].lower != nil; gather != c.gather || s.inPlace != c.gather {
			t.Fatalf("%s: gather form %v, in place %v; want %v", c.name, gather, s.inPlace, c.gather)
		}
		for k := 8; ; k *= 2 {
			b := gen.RandVec(c.l.Rows*k, 32)
			x := make([]float64, len(b))
			d := time.Duration(1<<63 - 1)
			for range 2 {
				t0 := time.Now()
				s.SolveBatch(b, x, k)
				d = min(d, time.Since(t0))
			}
			if d >= 80*time.Millisecond || k >= 128 {
				leaves = append(leaves, serialLeaf{c.name, s, c.l, k, b, d})
				break
			}
		}
	}
	return leaves
}

// TestSizeStoppedSerialLeafGathers: with the serial floor on, Algorithm 7
// also decides a range the size rule stops, so serialLeaves' banded
// matrix under the default options with MinBlockRows above its rows (a
// single triangle) is one stop=serial gather leaf solved in place, not
// the CSC scatter of a forced plan.
func TestSizeStoppedSerialLeafGathers(t *testing.T) {
	l := gen.Banded(16_000, 128, 1, 31)
	o := Defaults(exec.Device{Name: "test", Workers: 2, BlockFactor: 1024})
	o.MinBlockRows = l.Rows + 1
	s, err := Preprocess(l, o)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTriBlocks() != 1 || s.tris[0].kernel != kernels.TriSerial {
		t.Fatalf("want one serial leaf, got %v", s.TriKernelCounts())
	}
	if s.tris[0].lower == nil || !s.inPlace || s.plan[0].stop != stopSerial {
		t.Fatalf("gather form %v, in place %v, stop=%v; want a stop=serial gather leaf in place",
			s.tris[0].lower != nil, s.inPlace, s.plan[0].stop)
	}
}

// TestDepthStoppedSerialLeafGathers: with the serial floor on, Algorithm
// 7 also decides a range MaxDepth stops. The matrix's first half is a
// 40-row chain and 4,056 rows on its last row (200 entries of work a
// level), its second half rows of 200 entries on the first half: the
// root, about 20,000 entries of work a level, splits, and at MaxDepth 1
// its left half is a stop=serial gather leaf, not the CSC scatter.
func TestDepthStoppedSerialLeafGathers(t *testing.T) {
	const n, chain, wide = 8192, 40, 200
	l := &sparse.CSR[float64]{Rows: n, Cols: n, RowPtr: make([]int, 1, n+1)}
	for i := range n {
		var cols []int
		switch {
		case i == 0:
		case i < chain:
			cols = []int{i - 1}
		case i < n/2:
			cols = []int{chain - 1}
		default:
			for c := range wide {
				cols = append(cols, chain+c)
			}
		}
		for _, c := range cols {
			l.ColIdx, l.Val = append(l.ColIdx, c), append(l.Val, -0.5/float64(len(cols)))
		}
		l.ColIdx, l.Val = append(l.ColIdx, i), append(l.Val, 1)
		l.RowPtr = append(l.RowPtr, len(l.ColIdx))
	}
	o := Defaults(exec.Device{Name: "test", Workers: 2, BlockFactor: 1024})
	o.MinBlockRows, o.MaxDepth = 64, 1
	s, err := Preprocess(l, o)
	if err != nil {
		t.Fatal(err)
	}
	serial := 0
	for i, spec := range s.plan {
		if spec.kind != triSeg {
			continue
		}
		tb := &s.tris[s.steps[i].idx]
		if tb.kernel != kernels.TriSerial {
			continue
		}
		serial++
		if tb.lower == nil || spec.stop != stopSerial || spec.depth != 1 {
			t.Fatalf("serial leaf [%d,%d): gather form %v, stop=%v, depth %d; want a stop=serial gather leaf at depth 1",
				tb.lo, tb.hi, tb.lower != nil, spec.stop, spec.depth)
		}
	}
	if serial != 1 {
		t.Fatalf("%d serial leaves, want 1: %v", serial, s.TriKernelCounts())
	}
	solveAgainstOracle(t, s, l, 35)
}

// solveAgainstOracle checks one solve of the preprocessed solver against
// the serial reference on the matrix the caller says it represents.
func solveAgainstOracle(t *testing.T, s *Solver[float64], l *sparse.CSR[float64], seed int64) {
	t.Helper()
	b := gen.RandVec(l.Rows, seed)
	ref, err := kernels.NewSerialSolver(l)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, l.Rows)
	ref.Solve(b, want)
	got := make([]float64, l.Rows)
	s.Solve(b, got)
	for i := range want {
		if !closeEnough(want[i], got[i]) {
			t.Fatalf("row %d: got %g, oracle %g", i, got[i], want[i])
		}
	}
}

// TestSerialLeafFeedsStallWatchdog: a serial leaf that runs 8× the stall
// timeout is not a stall. Both serial forms step the progress counter
// every few hundred columns or rows, so the watchdog sees it advance and
// the solve returns the oracle's answer.
func TestSerialLeafFeedsStallWatchdog(t *testing.T) {
	for _, leaf := range serialLeaves(t) {
		t.Run(leaf.name, func(t *testing.T) {
			s, k, b, d := leaf.s, leaf.k, leaf.b, leaf.d
			s.opts.StallTimeout = d / 8
			x := make([]float64, len(b))
			if err := s.SolveBatchContext(context.Background(), b, x, k); err != nil {
				t.Fatalf("a %v serial leaf under a %v stall timeout: %v", d, d/8, err)
			}
			bound := backwardBound(leaf.l, 0)
			for j, e := range sparse.BackwardError(leaf.l, x, b, k) {
				if !(e <= bound) {
					t.Fatalf("column %d: backward error %.3g above %.3g", j, e, bound)
				}
			}
		})
	}
}

// TestDeadlineInterruptsSerialLeaf: a deadline that expires inside a
// serial leaf ends the solve at the next chunk of columns or rows, well
// before the leaf would have finished.
func TestDeadlineInterruptsSerialLeaf(t *testing.T) {
	for _, leaf := range serialLeaves(t) {
		t.Run(leaf.name, func(t *testing.T) {
			s, k, b, d := leaf.s, leaf.k, leaf.b, leaf.d
			ctx, cancel := context.WithTimeout(context.Background(), d/8)
			defer cancel()
			x := make([]float64, len(b))
			t0 := time.Now()
			err := s.SolveBatchContext(ctx, b, x, k)
			elapsed := time.Since(t0)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("got %v, want context.DeadlineExceeded", err)
			}
			if elapsed > d/2 {
				t.Fatalf("returned after %v; the whole leaf takes %v", elapsed, d)
			}
		})
	}
}
