package block

import (
	"fmt"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
)

// BenchmarkLeafKernels times the four dependent triangular kernels on one
// leaf of the block solver: a gen.Layered block of 1,024 or 3,072 rows
// (the leaf cap at one and three workers) with 2, 6 or 16 nonzeros per
// row over 2–256 levels, on spin pools of 2 and 3 workers. It is the
// sweep behind the serial floor, adapt.Thresholds.TriParallelMinWork
// (EXPERIMENTS.md, "Why the block solver lost on deep"). Each case
// reports its work/level, so the crossover where a parallel kernel first
// beats serial can be re-measured on another host. The serial-csr case
// solves the serial case's leaf as a CSR gather (kernels.SerialSolveCSR)
// instead of the CSC scatter; it calls the kernel directly, so unlike the
// others it skips Solve's copy of the right-hand side, as an in-place
// gather leaf does. Blocks of 10,000 and 30,000 rows, whole serial leaves
// above the leaf cap, run the serial and serial-csr cases only. Every
// case also reports the serial-leaf form rule's feature, far/row (strict
// entries per row reaching far below the diagonal, adapt.LeafCounts), and
// gather, 1 when the rule picks the gather for the block, so the rule's
// constants can be re-fitted on another host (EXPERIMENTS.md, "Serial
// leaves pick their form"):
//
//	go test -run '^$' -bench LeafKernels -benchtime 200x -count 5 ./internal/block
func BenchmarkLeafKernels(b *testing.B) {
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
					_, far := adapt.LeafCounts(l.RowPtr, l.ColIdx, 0, rows, nil)
					farRow := float64(far) / float64(rows)
					gather := 0.0
					if adapt.PrefersGather(rows, far) {
						gather = 1
					}
					name := fmt.Sprintf("workers=%d/rows=%d/nnz=%d/levels=%d/", workers, rows, deg, levels)
					var work float64
					report := func(b *testing.B) {
						b.ReportMetric(work, "work/level")
						b.ReportMetric(farRow, "far/row")
						b.ReportMetric(gather, "gather")
					}
					for _, k := range tris {
						// One un-split triangle: the whole system is the leaf.
						s, err := Preprocess(l, Options{Pool: pool, Kind: ColumnBlock, NSeg: 1, ForceTri: k})
						if err != nil {
							b.Fatal(err)
						}
						work = float64(s.tris[0].feats.WorkPerLevel())
						b.Run(name+k.String(), func(b *testing.B) {
							report(b)
							for i := 0; i < b.N; i++ {
								s.Solve(rhs, x)
							}
						})
					}
					b.Run(name+"serial-csr", func(b *testing.B) {
						report(b)
						for i := 0; i < b.N; i++ {
							kernels.SerialSolveCSR(l, rhs, x, nil)
						}
					})
				}
			}
		}
		pool.Close()
	}
}
