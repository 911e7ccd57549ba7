package block

import (
	"fmt"
	"math"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// The cross-kernel conformance matrix: every forceable triangular kernel,
// on every launcher style and at both extremes of width, under every
// partition shape, in both precisions, over a structurally diverse
// corpus — each combination's solution compared elementwise against the
// same-precision serial reference. This is the lockdown the observability layer rides on: any
// kernel/launcher/partition interaction that corrupts a solution fails
// here by name.

// conformanceCorpus builds the generated test systems. Structure is the
// axis: near-dense, diagonal-only (completely parallel), a serial chain
// (maximally level-bound), a layered DAG (the typical middle), and a
// sparse band whose strict part leaves many rows empty.
func conformanceCorpus(short bool) []struct {
	name string
	l    *sparse.CSR[float64]
} {
	n := 600
	if short {
		n = 160
	}
	return []struct {
		name string
		l    *sparse.CSR[float64]
	}{
		{"dense-ish", gen.DenseLower(80, 11)},
		{"diagonal", gen.DiagonalOnly(n, 12)},
		{"long-chain", gen.SerialChain(n, 0.1, 13)},
		{"layered", gen.Layered(n, 20, 4, 0, 14)},
		{"sparse-band", gen.Banded(n, 30, 0.05, 15)},
	}
}

// conformanceLauncher is one entry on the launcher axis.
type conformanceLauncher struct {
	name string
	pool exec.Launcher
}

// conformanceLaunchers is the launcher axis of the conformance tests:
// both styles at the device default of three workers, then the two
// extremes of width. One worker, what a pool sized to a single CPU gets,
// runs every launch inline on the caller and fuses only single-row
// levels into serial chunks. Eight workers oversubscribe any machine
// with fewer CPUs, where sync-free workers busy-wait on producers that
// are not running, and the merged schedules fuse every level narrower
// than sixteen rows.
func conformanceLaunchers() []conformanceLauncher {
	return []conformanceLauncher{
		{exec.LaunchSpin.String(), exec.NewLauncher(exec.LaunchSpin, 3)},
		{exec.LaunchSpawn.String(), exec.NewLauncher(exec.LaunchSpawn, 3)},
		{"one-worker", exec.NewSpinPool(1)},
		{"eight-workers", exec.NewSpinPool(8)},
	}
}

func TestKernelConformanceMatrix(t *testing.T) {
	corpus := conformanceCorpus(testing.Short())

	launchers := conformanceLaunchers()
	for _, ln := range launchers {
		defer exec.CloseLauncher(ln.pool)
	}

	kinds := []Kind{ColumnBlock, RowBlock, Recursive}
	triKernels := []kernels.TriKernel{
		kernels.TriLevelSet, kernels.TriSyncFree, kernels.TriCuSparseLike, kernels.TriSerial,
	}

	for _, m := range corpus {
		for _, ln := range launchers {
			for _, kind := range kinds {
				for _, tri := range triKernels {
					name := fmt.Sprintf("%s/%s/%s/%s", m.name, ln.name, kind, tri)
					t.Run(name+"/float64", func(t *testing.T) {
						conformanceCase[float64](t, m.l, ln.pool, kind, tri, 1e-8)
					})
					t.Run(name+"/float32", func(t *testing.T) {
						conformanceCase[float32](t, m.l, ln.pool, kind, tri, 2e-3)
					})
				}
			}
		}
	}
}

// TestCompletelyParallelConformance covers the fifth kernel: forcing it is
// only legal when every block is diagonal-only, so it gets the diagonal
// matrix across all launchers and partitions instead of the full corpus.
func TestCompletelyParallelConformance(t *testing.T) {
	n := 600
	if testing.Short() {
		n = 160
	}
	l := gen.DiagonalOnly(n, 21)
	for _, ln := range conformanceLaunchers() {
		for _, kind := range []Kind{ColumnBlock, RowBlock, Recursive} {
			t.Run(fmt.Sprintf("%s/%s", ln.name, kind), func(t *testing.T) {
				conformanceCase[float64](t, l, ln.pool, kind, kernels.TriCompletelyParallel, 1e-12)
				conformanceCase[float32](t, l, ln.pool, kind, kernels.TriCompletelyParallel, 1e-5)
			})
		}
		exec.CloseLauncher(ln.pool)
	}
}

// conformanceCase solves one (matrix, pool, partition, kernel, precision)
// combination and compares the solution elementwise against the serial
// reference computed in the same precision.
func conformanceCase[T sparse.Float](t *testing.T, l64 *sparse.CSR[float64], pool exec.Launcher, kind Kind, tri kernels.TriKernel, tol float64) {
	t.Helper()
	l := sparse.ConvertValues[T](l64)
	o := Options{
		Pool: pool, Kind: kind, NSeg: 4, MinBlockRows: 16,
		Reorder: true, ForceTri: tri,
	}
	s, err := Preprocess(l, o)
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	b := toVec[T](gen.RandVec(l.Rows, 7))
	x := make([]T, l.Rows)
	s.Solve(b, x)

	ref := make([]T, l.Rows)
	kernels.SerialSolveCSR(l, b, ref, nil)
	assertClose(t, x, ref, tol)
}

func toVec[T sparse.Float](v []float64) []T {
	out := make([]T, len(v))
	for i, x := range v {
		out[i] = T(x)
	}
	return out
}

// assertClose compares elementwise with mixed absolute/relative tolerance
// (parallel kernels legitimately sum in a different order).
func assertClose[T sparse.Float](t *testing.T, got, want []T, tol float64) {
	t.Helper()
	for i := range want {
		g, w := float64(got[i]), float64(want[i])
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("x[%d] = %v (reference %v)", i, g, w)
		}
		if diff := math.Abs(g - w); diff > tol*(1+math.Abs(w)) {
			t.Fatalf("x[%d] = %v, reference %v (diff %.3e > tol %.1e)", i, g, w, diff, tol)
		}
	}
}
