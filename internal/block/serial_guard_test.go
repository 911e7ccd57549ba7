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

// serialLeaf builds a 16k-row matrix with 128 dependencies per row as
// one serial leaf, the plan of PreprocessAuto's single-triangle candidate,
// and returns it with k, a right-hand-side block of k columns and d, the
// best of two plain SolveBatch times. k doubles from 8 until d reaches
// 80 ms (or k reaches 128), so a stall timeout of d/8 stays far above a
// preemption of the solving thread on any host. Each row does 128·k
// multiply-adds against k copied values, so the solve's O(n·k) vector
// copies stay two orders of magnitude below d.
func serialLeaf(t *testing.T) (*Solver[float64], *sparse.CSR[float64], int, []float64, time.Duration) {
	t.Helper()
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
	for k := 8; ; k *= 2 {
		b := gen.RandVec(l.Rows*k, 32)
		x := make([]float64, len(b))
		d := time.Duration(1<<63 - 1)
		for range 2 {
			t0 := time.Now()
			s.SolveBatch(b, x, k)
			d = min(d, time.Since(t0))
		}
		if d >= 80*time.Millisecond || k >= 128 {
			return s, l, k, b, d
		}
	}
}

// TestSerialLeafFeedsStallWatchdog: a serial leaf that runs 8× the stall
// timeout is not a stall. The serial kernel steps the progress counter
// every few hundred columns, so the watchdog sees it advance and the
// solve returns the oracle's answer.
func TestSerialLeafFeedsStallWatchdog(t *testing.T) {
	s, l, k, b, d := serialLeaf(t)
	s.opts.StallTimeout = d / 8
	x := make([]float64, len(b))
	if err := s.SolveBatchContext(context.Background(), b, x, k); err != nil {
		t.Fatalf("a %v serial leaf under a %v stall timeout: %v", d, d/8, err)
	}
	bound := backwardBound(l, 0)
	for j, e := range sparse.BackwardError(l, x, b, k) {
		if !(e <= bound) {
			t.Fatalf("column %d: backward error %.3g above %.3g", j, e, bound)
		}
	}
}

// TestDeadlineInterruptsSerialLeaf: a deadline that expires inside a
// serial leaf ends the solve at the next chunk of columns, well before
// the leaf would have finished.
func TestDeadlineInterruptsSerialLeaf(t *testing.T) {
	s, _, k, b, d := serialLeaf(t)
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
}
