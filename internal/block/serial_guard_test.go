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
			o.Adaptive, o.ForceTri = false, kernels.TriSerial
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
