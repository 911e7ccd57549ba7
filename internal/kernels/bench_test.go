package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Micro-benchmarks of the individual kernels — the per-cell measurements
// the adaptive tuner aggregates. Three representative block structures:
// shallow (8 levels), mid (128 levels) and chain-like.

func benchTriMatrix(levels int) *sparse.CSR[float64] {
	return gen.Layered(20000, levels, 4, 0, 99)
}

func BenchmarkTriKernels(b *testing.B) {
	pool := exec.NewPool(0)
	for _, levels := range []int{8, 128, 4096} {
		l := benchTriMatrix(levels)
		strict, diag, err := sparse.SplitDiagCSC(l.ToCSC())
		if err != nil {
			b.Fatal(err)
		}
		info := levelset.FromLowerCSR(l)
		strictCSR := strict.ToCSR()
		sched := NewMergedSchedule(info, 0, pool.Workers())
		state := NewSyncFreeState(strict)
		rhs := gen.RandVec(l.Rows, 7)
		w := make([]float64, l.Rows)
		x := make([]float64, l.Rows)

		run := func(name string, fn func()) {
			b.Run(fmt.Sprintf("%s/levels=%d", name, levels), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(w, rhs)
					fn()
				}
				b.ReportMetric(2*float64(l.NNZ())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
			})
		}
		run("serial", func() { TriSerialSolve(strict, diag, w, x, nil) })
		run("level-set", func() { TriLevelSetSolve(pool, strict, diag, info, w, x, nil) })
		run("sync-free", func() { TriSyncFreeSolve(pool, state, strict, diag, w, x, nil) })
		run("cusparse-like", func() { TriCuSparseLikeSolve(pool, sched, strictCSR, diag, w, x, nil) })
	}
}

// BenchmarkLevelSetLauncherStyles isolates what launch latency does to the
// launch-bound kernels: a deep matrix (4096 levels, tmt_sym-like regime)
// pays one launch per level under level-set and one per merged row range
// under cusparse-like, so per-launch cost dominates the solve. Fixed 4
// workers so the dispatch machinery runs even where GOMAXPROCS is small.
func BenchmarkLevelSetLauncherStyles(b *testing.B) {
	l := benchTriMatrix(4096)
	strict, diag, err := sparse.SplitDiagCSC(l.ToCSC())
	if err != nil {
		b.Fatal(err)
	}
	info := levelset.FromLowerCSR(l)
	strictCSR := strict.ToCSR()
	rhs := gen.RandVec(l.Rows, 7)
	w := make([]float64, l.Rows)
	x := make([]float64, l.Rows)
	for _, style := range []exec.LaunchStyle{exec.LaunchSpawn, exec.LaunchSpin} {
		pool := exec.NewLauncher(style, 4)
		sched := NewMergedSchedule(info, 0, pool.Workers())
		b.Run(fmt.Sprintf("level-set/%s", style), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(w, rhs)
				TriLevelSetSolve(pool, strict, diag, info, w, x, nil)
			}
		})
		b.Run(fmt.Sprintf("cusparse-like/%s", style), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(w, rhs)
				TriCuSparseLikeSolve(pool, sched, strictCSR, diag, w, x, nil)
			}
		})
		exec.CloseLauncher(pool)
	}
}

func BenchmarkSpMVKernels(b *testing.B) {
	pool := exec.NewPool(0)
	for _, shape := range []struct {
		name string
		a    *sparse.CSR[float64]
	}{
		{"uniform", gen.RandomRect(20000, 20000, 6, 0, 98)},
		{"powerlaw", gen.RandomRect(20000, 20000, 4, 0.02, 97)},
		{"sparse-empty", gen.EmptyRowsRect(20000, 20000, 0.8, 8, 96)},
	} {
		a := shape.a
		d := a.ToDCSR()
		x := gen.RandVec(a.Cols, 7)
		w := make([]float64, a.Rows)
		for _, k := range []SpMVKernel{SpMVScalarCSR, SpMVVectorCSR, SpMVScalarDCSR, SpMVVectorDCSR} {
			k := k
			b.Run(fmt.Sprintf("%s/%s", shape.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					RunSpMV(pool, k, a, d, x, w)
				}
				b.ReportMetric(2*float64(a.NNZ())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
			})
		}
	}
}

func BenchmarkBatchVsLoopedKernels(b *testing.B) {
	l := benchTriMatrix(64)
	strict, diag, err := sparse.SplitDiagCSC(l.ToCSC())
	if err != nil {
		b.Fatal(err)
	}
	const k = 8
	rng := rand.New(rand.NewSource(1))
	wb := make([]float64, l.Rows*k)
	xb := make([]float64, l.Rows*k)
	rhs := make([]float64, l.Rows*k)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.Run("serial-batched-k8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(wb, rhs)
			TriSerialSolveBatch(strict, diag, wb, xb, k, nil)
		}
	})
	b.Run("serial-looped-k8", func(b *testing.B) {
		w := make([]float64, l.Rows)
		x := make([]float64, l.Rows)
		for i := 0; i < b.N; i++ {
			for r := 0; r < k; r++ {
				for j := 0; j < l.Rows; j++ {
					w[j] = rhs[j*k+r]
				}
				TriSerialSolve(strict, diag, w, x, nil)
			}
		}
	})
}
