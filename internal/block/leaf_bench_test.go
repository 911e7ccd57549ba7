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

// BenchmarkLeafKernels times the four dependent triangular kernels on one
// leaf of the block solver: a gen.Layered block of 1,024 or 3,072 rows
// (the leaf cap at one and three workers) with 2, 6 or 16 nonzeros per
// row over 2–256 levels, on spin pools of 2 and 3 workers. It is the
// sweep behind the serial floor, adapt.Thresholds.TriParallelMinWork
// (EXPERIMENTS.md, "Why the block solver lost on deep"). Each case
// reports its work/level, so the crossover where a parallel kernel first
// beats serial can be re-measured on another host. The serial case runs
// the CSC scatter, the form of forced and paper-tree plans;
// the serial-csr case solves the same leaf as a CSR gather
// (kernels.SerialSolveCSR), the form of every serial leaf the walk makes.
// serial-csr calls the kernel directly, so unlike the others it skips
// Solve's copy of the right-hand side, as an in-place gather leaf does.
// Both serial forms also run at k = 16 right-hand sides: serial-k16
// through SolveBatch and serial-csr-k16 through
// kernels.SerialSolveCSRBatch. Blocks of 10,000 and 30,000 rows, whole
// serial leaves above the leaf cap, run the serial forms only
// (EXPERIMENTS.md, "Every serial leaf gathers").
//
// Consecutive rows of a layered leaf never read each other. At the same
// two sizes, a gen.SerialChain and a gen.GridLaplacian5 leaf, whose rows
// read the row before them, run as the default plan solves them: one
// whole gather leaf, serial-csr through the kernel that plan runs
// (kernels.SerialSolveCSR on L for the chain, SerialSolveCSROrdered on
// its level-ordered copy for the grid), and serial-csr-k16 through
// kernels.SerialSolveCSRBatch on L (EXPERIMENTS.md, "The diagonal as a
// reciprocal"):
//
//	go test -run '^$' -bench LeafKernels -benchtime 200x -count 5 ./internal/block
//	go test -run '^$' -bench 'LeafKernels/rows=.*/(chain|grid5)' -benchtime 200x -count 5 ./internal/block
func BenchmarkLeafKernels(b *testing.B) {
	const k16 = 16
	for _, workers := range []int{2, 3} {
		pool := exec.NewSpinPool(workers)
		for _, rows := range []int{1024, 3072, 10_000, 30_000} {
			tris := []kernels.TriKernel{kernels.TriSerial, kernels.TriLevelSet, kernels.TriSyncFree, kernels.TriCuSparseLike}
			if rows > 3072 {
				tris = tris[:1]
			}
			for _, deg := range []int{2, 6, 16} {
				for levels := 2; levels <= 256; levels *= 2 {
					l := gen.Layered(rows, levels, deg, 0, int64(rows+deg+levels))
					rhs := gen.RandVec(rows, 5)
					x := make([]float64, rows)
					rhs16 := gen.RandVec(rows*k16, 5)
					x16 := make([]float64, rows*k16)
					name := fmt.Sprintf("workers=%d/rows=%d/nnz=%d/levels=%d/", workers, rows, deg, levels)
					var work float64
					run := func(kase string, solve func()) {
						b.Run(name+kase, func(b *testing.B) {
							b.ReportMetric(work, "work/level")
							for i := 0; i < b.N; i++ {
								solve()
							}
						})
					}
					for _, k := range tris {
						// One un-split triangle: the whole system is the leaf.
						s, err := Preprocess(l, Options{Pool: pool, Kind: ColumnBlock, NSeg: 1, ForceTri: k})
						if err != nil {
							b.Fatal(err)
						}
						work = float64(s.tris[0].feats.WorkPerLevel())
						run(k.String(), func() { s.Solve(rhs, x) })
						if k == kernels.TriSerial {
							run("serial-k16", func() { s.SolveBatch(rhs16, x16, k16) })
						}
					}
					run("serial-csr", func() { kernels.SerialSolveCSR(l, rhs, x, nil) })
					run("serial-csr-k16", func() { kernels.SerialSolveCSRBatch(l, rhs16, x16, k16, nil) })
				}
			}
		}
		pool.Close()
	}
	pool := exec.NewPool(3)
	for _, rows := range []int{10_000, 30_000} {
		side := int(math.Sqrt(float64(rows)))
		leaves := []struct {
			name  string
			build func() *sparse.CSR[float64]
		}{
			{"chain", func() *sparse.CSR[float64] { return gen.SerialChain(rows, 0.3, int64(rows)) }},
			{"grid5", func() *sparse.CSR[float64] { return gen.GridLaplacian5(side, side, int64(rows)) }},
		}
		for _, leaf := range leaves {
			// The matrix is built only when the filter selects the leaf.
			b.Run(fmt.Sprintf("rows=%d/%s", rows, leaf.name), func(b *testing.B) {
				l := leaf.build()
				o := Defaults(exec.DefaultDevices()[1])
				o.Pool = pool
				s, err := Preprocess(l, o)
				if err != nil {
					b.Fatal(err)
				}
				if !s.inPlace {
					b.Fatal("want the default plan to be one whole gather leaf")
				}
				tb := &s.tris[0]
				rhs, x := gen.RandVec(l.Rows, 5), make([]float64, l.Rows)
				rhs16, x16 := gen.RandVec(l.Rows*k16, 5), make([]float64, l.Rows*k16)
				single := func() { kernels.SerialSolveCSR(l, rhs, x, nil) }
				if tb.ord != nil {
					single = func() { kernels.SerialSolveCSROrdered(tb.lower, tb.ord, rhs, x, nil) }
				}
				work := float64(tb.feats.WorkPerLevel())
				run := func(kase string, solve func()) {
					b.Run(kase, func(b *testing.B) {
						b.ReportMetric(work, "work/level")
						for i := 0; i < b.N; i++ {
							solve()
						}
					})
				}
				run("serial-csr", single)
				run("serial-csr-k16", func() { kernels.SerialSolveCSRBatch(l, rhs16, x16, k16, nil) })
			})
		}
	}
}
