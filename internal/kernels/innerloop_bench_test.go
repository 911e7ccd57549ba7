package kernels

import (
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// BenchmarkInnerLoop isolates the per-nonzero cost of each kernel shape's
// inner loop (DESIGN.md §6.9): single-threaded solves on a dense band
// matrix, so there is no launch, barrier or spin overhead and the ns/nnz
// metric is the scatter/gather loop itself. This is the number the BCE
// and unrolling work moves; the suite benchmarks measure everything else
// on top of it.

// bandLower builds a lower band matrix: row i depends on its band
// predecessors, rows are uniformly long, so per-nnz cost is steady.
func bandLower(n, band int) *sparse.CSR[float64] {
	b := sparse.NewBuilder[float64](n, n)
	for i := 0; i < n; i++ {
		lo := i - band
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			b.Add(i, j, 0.5/float64(band))
		}
		b.Add(i, i, 2)
	}
	return b.BuildCSR()
}

func BenchmarkInnerLoop(b *testing.B) {
	const n, band = 20000, 24
	l := bandLower(n, band)
	strict, diag, err := sparse.SplitDiagCSC(l.ToCSC())
	if err != nil {
		b.Fatal(err)
	}
	nnz := float64(l.NNZ())
	rhs := gen.RandVec(n, 7)
	w := make([]float64, n)
	x := make([]float64, n)

	perNNZ := func(b *testing.B, units float64) {
		b.Helper()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(units*float64(b.N)), "ns/nnz")
	}

	b.Run("scatter-csc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(w, rhs)
			TriSerialSolve(strict, diag, w, x, nil)
		}
		perNNZ(b, nnz)
	})

	// The batch kernel at k = 1 against scatter-csc above is why solves of
	// one right-hand side keep their own kernels instead of running the
	// batch ones at k = 1 (EXPERIMENTS.md, inner-loop table).
	b.Run("batch-k1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(w, rhs)
			TriSerialSolveBatch(strict, diag, w, x, 1, nil)
		}
		perNNZ(b, nnz)
	})

	b.Run("gather-csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SerialSolveCSR(l, rhs, x)
		}
		perNNZ(b, nnz)
	})

	b.Run("spmv-gather", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SpMVSerialSub(l, x, w)
		}
		perNNZ(b, nnz)
	})

	const k = 8
	wb := make([]float64, n*k)
	xb := make([]float64, n*k)
	rhsb := gen.RandVec(n*k, 9)
	b.Run("batch-axpy-k8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(wb, rhsb)
			TriSerialSolveBatch(strict, diag, wb, xb, k, nil)
		}
		perNNZ(b, nnz*k) // one multiply-sub per nonzero per RHS column
	})

	perm := make([]int, n)
	for i := range perm {
		perm[i] = (i*7 + 3) % n // fixed full-period scramble, data-dependent targets
	}
	src := gen.RandVec(n, 11)
	dst := make([]float64, n)
	b.Run("permute-gatherscatter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparse.PermuteVecInto(dst, src, perm)
		}
		perNNZ(b, float64(n))
	})
}
