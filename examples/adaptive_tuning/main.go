// Adaptive threshold tuning: the paper derives its kernel-selection
// thresholds (Algorithm 7) from a large performance sweep on its benchmark
// GPU. This example repeats that methodology on the current machine:
// it tunes the decision tree, shows how the fitted cut points differ from
// the paper's GPU-derived ones, and measures the paper's tree, the
// library default (the paper's tree under a serial floor) and the fitted
// tree on a near-serial system where the crossover points matter most.
//
//	go run ./examples/adaptive_tuning
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	sptrsv "github.com/sss-lab/blocksptrsv"
)

func main() {
	fmt.Println("tuning kernel-selection thresholds on this machine (a few seconds)...")
	fitted := sptrsv.TuneThresholds(0, 20000)
	defaults := sptrsv.DefaultOptions(0).Thresholds
	paper := defaults
	paper.TriParallelMinWork = 0 // the paper's tree has no serial floor
	fmt.Printf("\n%-24s %14s %14s\n", "threshold", "paper (GPU)", "fitted (here)")
	fmt.Printf("%-24s %14d %14d\n", "serial floor work/level", paper.TriParallelMinWork, fitted.TriParallelMinWork)
	fmt.Printf("%-24s %14.0f %14.0f\n", "levelset max nnz/row", paper.TriLevelSetMaxNNZRow, fitted.TriLevelSetMaxNNZRow)
	fmt.Printf("%-24s %14d %14d\n", "levelset max levels", paper.TriLevelSetMaxLevels, fitted.TriLevelSetMaxLevels)
	fmt.Printf("%-24s %14d %14d\n", "chain band max levels", paper.TriChainMaxLevels, fitted.TriChainMaxLevels)
	fmt.Printf("%-24s %14d %14d\n", "cusparse min levels", paper.TriCuSparseMinLevels, fitted.TriCuSparseMinLevels)
	fmt.Printf("%-24s %14.0f %14.0f\n", "spmv scalar max nnz/row", paper.SpMVScalarMaxNNZRow, fitted.SpMVScalarMaxNNZRow)

	// A near-serial system: a long chain with sparse extra dependencies.
	// Here the choice between sync-free, level-set and the merged-serial
	// cuSPARSE-like kernel dominates performance.
	const n = 120_000
	rng := rand.New(rand.NewSource(3))
	b := sptrsv.NewBuilder[float64](n, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.Add(i, i-1, -0.4)
		}
		if i > 1 && rng.Float64() < 0.3 {
			b.Add(i, rng.Intn(i), 0.05)
		}
		b.Add(i, i, 2)
	}
	l := b.BuildCSR()

	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	x := make([]float64, n)

	run := func(label string, th sptrsv.Thresholds) time.Duration {
		o := sptrsv.DefaultOptions(0)
		o.Thresholds = th
		s, err := sptrsv.Analyze(l, o)
		if err != nil {
			log.Fatal(err)
		}
		s.Solve(rhs, x) // warmup
		const reps = 5
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			s.Solve(rhs, x)
		}
		per := time.Since(t0) / reps
		fmt.Printf("%-28s kernels=%v  %v/solve\n", label, s.TriKernelCounts(), per.Round(time.Microsecond))
		return per
	}

	fmt.Printf("\nnear-serial chain, n=%d nnz=%d:\n", l.Rows, l.NNZ())
	tPaper := run("paper thresholds", paper)
	tDefault := run("default thresholds", defaults)
	tFitted := run("fitted thresholds", fitted)
	fmt.Printf("\ndefault/paper solve time: %.2fx\n", tDefault.Seconds()/tPaper.Seconds())
	fmt.Printf("fitted/paper solve time: %.2fx\n", tFitted.Seconds()/tPaper.Seconds())
}
