package blocksptrsv_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	sptrsv "github.com/sss-lab/blocksptrsv"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
)

// buildRandomLower assembles a well-conditioned lower-triangular system
// through the public Builder API.
func buildRandomLower(n int, density float64, seed int64) *sptrsv.Matrix[float64] {
	rng := rand.New(rand.NewSource(seed))
	b := sptrsv.NewBuilder[float64](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if rng.Float64() < density {
				b.Add(i, j, 0.3*rng.NormFloat64()/float64(1+i-j))
			}
		}
		b.Add(i, i, 2+rng.Float64())
	}
	return b.BuildCSR()
}

func publicResidual(l *sptrsv.Matrix[float64], x, b []float64) float64 {
	worst := 0.0
	for i := 0; i < l.Rows; i++ {
		var sum float64
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
			sum += l.Val[k] * x[l.ColIdx[k]]
		}
		if r := math.Abs(sum-b[i]) / (1 + math.Abs(b[i])); r > worst {
			worst = r
		}
	}
	return worst
}

func TestAnalyzeSolveRoundTrip(t *testing.T) {
	l := buildRandomLower(3000, 0.01, 1)
	s, err := sptrsv.Analyze(l, sptrsv.DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, l.Rows)
	for i := range b {
		b[i] = float64(i%11) - 5
	}
	x := make([]float64, l.Rows)
	s.Solve(b, x)
	if r := publicResidual(l, x, b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
}

func TestAllPublicAlgorithmsAgree(t *testing.T) {
	l := buildRandomLower(1000, 0.02, 2)
	b := make([]float64, l.Rows)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	ref, err := sptrsv.NewSolver("serial", l, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, l.Rows)
	ref.Solve(b, want)
	for _, name := range sptrsv.Algorithms() {
		s, err := sptrsv.NewSolver(name, l, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := make([]float64, l.Rows)
		s.Solve(b, x)
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("%s deviates at %d: %g vs %g", name, i, x[i], want[i])
			}
		}
	}
}

func TestLowerTriangleAndOptionsVariants(t *testing.T) {
	full := sptrsv.GridSPD(25, 25)
	l, err := sptrsv.LowerTriangle(full, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []sptrsv.Kind{sptrsv.Recursive, sptrsv.ColumnBlock, sptrsv.RowBlock} {
		o := sptrsv.DefaultOptions(2)
		o.Kind = kind
		o.NSeg = 4
		o.MinBlockRows = 100
		s, err := sptrsv.Analyze(l, o)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, l.Rows)
		for i := range b {
			b[i] = 1
		}
		x := make([]float64, l.Rows)
		s.Solve(b, x)
		if r := publicResidual(l, x, b); r > 1e-9 {
			t.Fatalf("%v residual %g", kind, r)
		}
	}
}

func TestILU0PipelineUpperViaTranspose(t *testing.T) {
	a := sptrsv.GridSPD(20, 20)
	l, u, err := sptrsv.ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	// Solve U x = b by solving the lower system Uᵀ-style: transpose U and
	// run the lower solver, then verify against U directly.
	ut := sptrsv.Transpose(u)
	if !ut.IsLowerTriangular() {
		t.Fatal("Uᵀ not lower triangular")
	}
	sl, err := sptrsv.Analyze(l, sptrsv.DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64(1 + i%3)
	}
	y := make([]float64, a.Rows)
	sl.Solve(b, y)
	if r := publicResidual(l, y, b); r > 1e-9 {
		t.Fatalf("L-solve residual %g", r)
	}
}

func TestMatrixMarketPublicRoundTrip(t *testing.T) {
	m := buildRandomLower(50, 0.2, 3)
	var buf bytes.Buffer
	if err := sptrsv.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := sptrsv.ReadMatrixMarket[float64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != m.NNZ() || back.Rows != m.Rows {
		t.Fatal("round trip changed shape")
	}
}

func TestReadMatrixMarketFileMissing(t *testing.T) {
	if _, err := sptrsv.ReadMatrixMarketFile[float64]("/nonexistent/file.mtx"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestFromDenseAndUpper(t *testing.T) {
	m := sptrsv.FromDense(2, 2, []float64{4, 1, 0, 3})
	u, err := sptrsv.UpperTriangle(m, false)
	if err != nil {
		t.Fatal(err)
	}
	if u.NNZ() != 3 {
		t.Fatalf("upper nnz %d", u.NNZ())
	}
}

func TestSolverIntrospection(t *testing.T) {
	l := buildRandomLower(2000, 0.01, 4)
	o := sptrsv.DefaultOptions(2)
	o.MinBlockRows = 200
	// The paper's size-only tree: the default serial floor would keep this
	// matrix whole as one serial leaf.
	o.Thresholds.TriParallelMinWork = 0
	s, err := sptrsv.Analyze(l, o)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTriBlocks() < 2 {
		t.Fatalf("expected a split, got %d blocks", s.NumTriBlocks())
	}
	tr := s.Traffic()
	if tr.BUpdates < int64(l.Rows) || tr.XLoads <= 0 {
		t.Fatalf("traffic: %+v", tr)
	}
}

func TestDefaultOptionsWorkerOverride(t *testing.T) {
	o := sptrsv.DefaultOptions(3)
	if o.Pool != nil {
		t.Fatalf("expected lazy pool (nil until Analyze), got %T", o.Pool)
	}
	if o.Workers != 3 {
		t.Fatalf("workers: %d", o.Workers)
	}
	forced := o.ForceTri != kernels.TriAuto || o.ForceSpMV != kernels.SpMVAuto
	if o.Kind != sptrsv.Recursive || !o.Reorder || forced {
		t.Fatalf("defaults not paper defaults: %+v", o)
	}
}
