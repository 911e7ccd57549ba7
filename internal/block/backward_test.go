package block

import (
	"math"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// benchmarkInput is one of the ten matrices the repository benchmark
// solves, built as benchmark/workloads.go builds it at seed 4100 and
// size 1: deep (banded, chain, grid5 at 0.1), wide (bipartite, powerlaw,
// layered at 1), batch (grid5 and layered at 0.1, ilu0) and serve (grid,
// layered).
type benchmarkInput struct {
	name  string
	build func() *sparse.CSR[float64]
}

func benchmarkInputs() []benchmarkInput {
	const seed = 4100
	return []benchmarkInput{
		{"banded", func() *sparse.CSR[float64] { return gen.Banded(12_000, 32, 0.25, seed+1) }},
		{"chain", func() *sparse.CSR[float64] { return gen.SerialChain(6_000, 0.3, seed+7) }},
		{"grid5", func() *sparse.CSR[float64] { return gen.GridLaplacian5(94, 94, seed+2) }},
		{"bipartite", func() *sparse.CSR[float64] { return gen.BipartiteBlock(150_000, 16, seed+3) }},
		{"powerlaw", func() *sparse.CSR[float64] { return gen.PowerLaw(80_000, 4, 0.01, seed+5) }},
		{"layered-100k", func() *sparse.CSR[float64] { return gen.Layered(100_000, 512, 6, 0, seed+4) }},
		{"ilu0", func() *sparse.CSR[float64] {
			l, _, err := gen.ILU0(gen.SPDGridMatrix(63, 63))
			if err != nil {
				panic(err)
			}
			return l
		}},
		{"layered-10k", func() *sparse.CSR[float64] { return gen.Layered(10_000, 512, 6, 0, seed+4) }},
		{"serve-grid", func() *sparse.CSR[float64] { return gen.GridLaplacian5(120, 120, seed+9) }},
		{"serve-layered", func() *sparse.CSR[float64] { return gen.Layered(20_000, 40, 6, 0.1, seed+10) }},
	}
}

// backwardBound is the componentwise backward error a solve of l under
// plan depth d may show: 2·(w + d + 2)·u, where w is l's longest row
// (stored entries, diagonal included) and u is the unit roundoff of l's
// element type, 2⁻⁵³ for float64 and 2⁻²⁴ for float32. Every kernel
// solves a row as x_i = (b_i − Σ v·x_c)·(1/d_i). Substitution in any
// summation order keeps the error of a row of w entries under γ_w ≈ w·u
// (Higham, ch. 8); evaluating the residual in float64 adds up to
// γ_(w+1) for float64 and less for float32; hence the factor 2. The
// d + 2 terms cover the two roundings of the diagonal step, the
// reciprocal and its product, and the subtraction of one partial sum per
// square a row crosses on its way down the recursion. Neither n nor the
// conditioning enters.
func backwardBound[T sparse.Float](l *sparse.CSR[T], depth int) float64 {
	u := 0x1p-53
	if _, single := any(T(0)).(float32); single {
		u = 0x1p-24
	}
	w := l.RowStats().MaxLen
	return 2 * float64(w+depth+2) * u
}

// TestBackwardErrorAtBenchmarkScale checks the numerical contract at the
// sizes the benchmark solves (6k–150k rows), where the default tree keeps
// whole matrices as single leaves: with the shipped options and with the
// serial floor off, which still runs completely-parallel, level-set and
// sync-free leaves, Solve and SolveBatch at k = 16 answer every column
// within backwardBound.
func TestBackwardErrorAtBenchmarkScale(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-scale matrices")
	}
	pool := exec.NewSpinPool(exec.DefaultDevices()[1].Workers)
	defer pool.Close()
	const k = 16
	for _, in := range benchmarkInputs() {
		l := in.build()
		n := l.Rows
		b := gen.RandVec(n*k, 4100)
		for _, floor := range []string{"default", "0"} {
			o := Defaults(exec.DefaultDevices()[1])
			o.Pool = pool
			if floor == "0" {
				o.Thresholds = paperThresholds()
			}
			s, err := Preprocess(l, o)
			if err != nil {
				t.Fatal(err)
			}
			depth := 0
			for _, spec := range s.plan {
				depth = max(depth, spec.depth)
			}
			bound := backwardBound(l, depth)
			x := make([]float64, n*k)
			s.Solve(b[:n], x[:n])
			if e := sparse.BackwardError(l, x[:n], b[:n], 1)[0]; !(e <= bound) {
				t.Errorf("%s floor=%s Solve: backward error %.3g above %.3g", in.name, floor, e, bound)
			}
			s.SolveBatch(b, x, k)
			worst := 0.0
			for j, e := range sparse.BackwardError(l, x, b, k) {
				if !(e <= bound) {
					t.Errorf("%s floor=%s SolveBatch column %d: backward error %.3g above %.3g", in.name, floor, j, e, bound)
				}
				worst = math.Max(worst, e)
			}
			t.Logf("%s floor=%s: %d leaves %v, depth %d, batch error %.3g (bound %.3g)",
				in.name, floor, s.NumTriBlocks(), s.TriKernelCounts(), depth, worst, bound)
		}
	}
}
