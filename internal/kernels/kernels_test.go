package kernels

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// randLower builds a well-conditioned random lower triangular matrix:
// strictly-lower entries are small, the diagonal is near one.
func randLower(rng *rand.Rand, n int, density float64) *sparse.CSR[float64] {
	b := sparse.NewBuilder[float64](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if rng.Float64() < density {
				b.Add(i, j, 0.5*rng.NormFloat64()/float64(1+i-j))
			}
		}
		b.Add(i, i, 1+rng.Float64())
	}
	return b.BuildCSR()
}

// chainLower builds a fully serial bidiagonal system (worst case for
// parallel methods; exercises deadlock freedom).
func chainLower(n int) *sparse.CSR[float64] {
	b := sparse.NewBuilder[float64](n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
	}
	return b.BuildCSR()
}

// residual returns max_i |(L·x - b)_i| / (1 + |b_i|).
func residual(l *sparse.CSR[float64], x, b []float64) float64 {
	worst := 0.0
	for i := 0; i < l.Rows; i++ {
		var sum float64
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
			sum += l.Val[k] * x[l.ColIdx[k]]
		}
		r := math.Abs(sum-b[i]) / (1 + math.Abs(b[i]))
		if r > worst {
			worst = r
		}
	}
	return worst
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestSerialSolverGolden(t *testing.T) {
	// L = [2 0 0; 1 1 0; 0 3 4], b = [2, 3, 14] -> x = [1, 2, 2].
	l := sparse.FromDense(3, 3, []float64{
		2, 0, 0,
		1, 1, 0,
		0, 3, 4,
	})
	s, err := NewSerialSolver(l)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3)
	s.Solve([]float64{2, 3, 14}, x)
	want := []float64{1, 2, 2}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-14 {
			t.Fatalf("x=%v want %v", x, want)
		}
	}
}

func TestAllBaselinesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	names := []string{"serial", "level-set", "sync-free", "cusparse-like"}
	for _, workers := range []int{1, 2, 8} {
		p := exec.NewPool(workers)
		for trial := 0; trial < 8; trial++ {
			n := 1 + rng.Intn(200)
			l := randLower(rng, n, 0.1)
			b := randVec(rng, n)
			want := make([]float64, n)
			ref, err := NewSerialSolver(l)
			if err != nil {
				t.Fatal(err)
			}
			ref.Solve(b, want)
			for _, name := range names {
				s, err := NewBaseline[float64](name, p, l)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if s.Rows() != n || s.Name() != name {
					t.Fatalf("%s: metadata wrong", name)
				}
				x := make([]float64, n)
				s.Solve(b, x)
				if r := residual(l, x, b); r > 1e-10 {
					t.Fatalf("workers=%d n=%d %s residual %g", workers, n, name, r)
				}
				// Solve twice: state must be reusable.
				s.Solve(b, x)
				if r := residual(l, x, b); r > 1e-10 {
					t.Fatalf("%s second solve residual %g", name, r)
				}
			}
		}
	}
}

func TestBaselinesPropertyQuick(t *testing.T) {
	p := exec.NewPool(4)
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		n := 1 + lr.Intn(80)
		l := randLower(lr, n, 0.25)
		b := randVec(lr, n)
		for _, name := range []string{"level-set", "sync-free", "cusparse-like"} {
			s, err := NewBaseline[float64](name, p, l)
			if err != nil {
				return false
			}
			x := make([]float64, n)
			s.Solve(b, x)
			if residual(l, x, b) > 1e-9 {
				t.Logf("seed=%d %s residual too large", seed, name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(51))}); err != nil {
		t.Fatal(err)
	}
}

func TestSyncFreeSerialChainNoDeadlock(t *testing.T) {
	// A fully serial chain with a tiny pool is the deadlock stress case:
	// every component waits on its predecessor.
	for _, workers := range []int{1, 2, 3} {
		p := exec.NewPool(workers)
		l := chainLower(500)
		s, err := NewSyncFreeSolver(p, l)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, 500)
		for i := range b {
			b[i] = 1
		}
		x := make([]float64, 500)
		s.Solve(b, x)
		if r := residual(l, x, b); r > 1e-10 {
			t.Fatalf("workers=%d residual %g", workers, r)
		}
	}
}

func TestLevelSetLaunchCountMatchesLevels(t *testing.T) {
	p := exec.NewPool(4)
	l := chainLower(64) // 64 levels
	s, err := NewLevelSetSolver(p, l)
	if err != nil {
		t.Fatal(err)
	}
	if s.Info().NLevels != 64 {
		t.Fatalf("nlevels=%d", s.Info().NLevels)
	}
	b := randVec(rand.New(rand.NewSource(1)), 64)
	x := make([]float64, 64)
	p.ResetLaunches()
	s.Solve(b, x)
	if got := p.Launches(); got != 64 {
		t.Fatalf("launches: got %d want 64 (one per level)", got)
	}
}

func TestCuSparseLikeMergesSerialLevels(t *testing.T) {
	p := exec.NewPool(4)
	l := chainLower(100) // fully serial: everything should fuse into 1 chunk
	s, err := NewCuSparseLikeSolver(p, l)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Schedule().Chunks(); got != 1 {
		t.Fatalf("chunks: got %d want 1", got)
	}
	if got := s.Schedule().SerialChunks(); got != 1 {
		t.Fatalf("serial chunks: got %d want 1", got)
	}
	b := randVec(rand.New(rand.NewSource(2)), 100)
	x := make([]float64, 100)
	p.ResetLaunches()
	s.Solve(b, x)
	if got := p.Launches(); got != 1 {
		t.Fatalf("launches: got %d want 1", got)
	}
	if r := residual(l, x, b); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
}

func TestMergedSchedulePartitionsItems(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(150)
		l := randLower(rng, n, 0.08)
		info := levelset.FromLowerCSR(l)
		width := 1 + rng.Intn(6)
		sched := NewMergedSchedule(info, width, 0)
		if sched.chunkPtr[0] != 0 || sched.chunkPtr[len(sched.chunkPtr)-1] != n {
			t.Fatalf("chunks do not span items: %v (n=%d)", sched.chunkPtr, n)
		}
		if len(sched.serial) != len(sched.chunkPtr)-1 {
			t.Fatal("serial flags length mismatch")
		}
		seen := make([]bool, n)
		for _, it := range sched.items {
			if seen[it] {
				t.Fatal("item repeated in schedule")
			}
			seen[it] = true
		}
		// Parallel chunks must be exactly one level of width >= width.
		for c := 0; c < sched.Chunks(); c++ {
			lo, hi := sched.chunkPtr[c], sched.chunkPtr[c+1]
			if !sched.serial[c] && hi-lo < width {
				t.Fatalf("parallel chunk narrower than threshold: %d < %d", hi-lo, width)
			}
		}
	}
}

func TestTriKernelsMatchTriSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, workers := range []int{1, 3, 8} {
		p := exec.NewPool(workers)
		for trial := 0; trial < 10; trial++ {
			n := 1 + rng.Intn(120)
			l := randLower(rng, n, 0.15)
			strictCSC, diag, err := sparse.SplitDiagCSC(l.ToCSC())
			if err != nil {
				t.Fatal(err)
			}
			info := levelset.FromLowerCSR(l)
			b := randVec(rng, n)

			want := make([]float64, n)
			w := append([]float64(nil), b...)
			TriSerialSolve(strictCSC, diag, w, want, nil)

			check := func(name string, x []float64) {
				t.Helper()
				for i := range want {
					if math.Abs(x[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
						t.Fatalf("workers=%d n=%d %s: x[%d]=%g want %g", workers, n, name, i, x[i], want[i])
					}
				}
			}

			x := make([]float64, n)
			w = append(w[:0], b...)
			TriLevelSetSolve(p, strictCSC, diag, info, w, x, nil)
			check("level-set", x)

			x = make([]float64, n)
			w = append(w[:0], b...)
			TriSyncFreeSolve(p, NewSyncFreeState(strictCSC), strictCSC, diag, w, x, nil)
			check("sync-free", x)

			strictCSR := strictCSC.ToCSR()
			sched := NewMergedSchedule(info, 0, workers)
			x = make([]float64, n)
			w = append(w[:0], b...)
			TriCuSparseLikeSolve(p, sched, strictCSR, diag, w, x, nil)
			check("cusparse-like", x)
		}
	}
}

func TestTriDiagOnlySolve(t *testing.T) {
	p := exec.NewPool(4)
	n := 1000
	diag := make([]float64, n)
	w := make([]float64, n)
	for i := range diag {
		diag[i] = float64(i + 1)
		w[i] = float64(2 * (i + 1))
	}
	x := make([]float64, n)
	TriDiagOnlySolve(p, diag, w, x)
	// Every component is w·(1/d), the diagonal rule of every kernel, bit
	// for bit; two roundings keep it within 2u of the exact 2.
	for i := range x {
		if x[i] != w[i]*(1/diag[i]) || math.Abs(x[i]-2) > 2*0x1p-53*2 {
			t.Fatalf("x[%d]=%g want %g, within 2u of 2", i, x[i], w[i]*(1/diag[i]))
		}
	}
}

func TestTriSyncFreeEmptyBlock(t *testing.T) {
	p := exec.NewPool(2)
	strict := &sparse.CSC[float64]{Rows: 0, Cols: 0, ColPtr: []int{0}}
	TriSyncFreeSolve(p, NewSyncFreeState(strict), strict, nil, nil, nil, nil)
}

func TestBaselineUnknownAndInvalid(t *testing.T) {
	p := exec.NewPool(2)
	l := chainLower(4)
	if _, err := NewBaseline[float64]("nope", p, l); err == nil {
		t.Fatal("unknown baseline accepted")
	}
	// Every constructor rejects a non-triangular matrix, and a zero
	// pivot with sparse.ErrSingular.
	zeroPivot := chainLower(4)
	zeroPivot.Val[zeroPivot.RowPtr[3]-1] = 0 // row 2's diagonal, the last entry of its row
	for _, bad := range []struct {
		what string
		m    *sparse.CSR[float64]
		want error // nil: any error
	}{
		{"non-triangular", sparse.FromDense(2, 2, []float64{1, 1, 1, 1}), nil},
		{"zero-pivot", zeroPivot, sparse.ErrSingular},
	} {
		for _, name := range []string{"serial", "level-set", "sync-free", "cusparse-like"} {
			_, err := NewBaseline[float64](name, p, bad.m)
			if err == nil || bad.want != nil && !errors.Is(err, bad.want) {
				t.Fatalf("%s on a %s matrix: got %v, want %v", name, bad.what, err, bad.want)
			}
		}
	}
}

// TestBaselinesEmptySystem: every baseline builds a 0×0 system and
// solves it, twice, with nil vectors.
func TestBaselinesEmptySystem(t *testing.T) {
	p := exec.NewPool(2)
	for _, name := range []string{"serial", "level-set", "sync-free", "cusparse-like"} {
		t.Run(name, func(t *testing.T) {
			s, err := NewBaseline[float64](name, p, chainLower(0))
			if err != nil {
				t.Fatal(err)
			}
			s.Solve(nil, nil)
			s.Solve(nil, nil)
			if s.Rows() != 0 || s.Name() != name {
				t.Fatalf("metadata: rows=%d name=%q", s.Rows(), s.Name())
			}
		})
	}
}

func TestFloat32Baselines(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	n := 100
	l64 := randLower(rng, n, 0.1)
	l := sparse.ConvertValues[float32](l64)
	p := exec.NewPool(4)
	b := make([]float32, n)
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	ref, err := NewSerialSolver(l)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float32, n)
	ref.Solve(b, want)
	for _, name := range []string{"level-set", "sync-free", "cusparse-like"} {
		s, err := NewBaseline[float32](name, p, l)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float32, n)
		s.Solve(b, x)
		for i := range x {
			if math.Abs(float64(x[i]-want[i])) > 1e-4*(1+math.Abs(float64(want[i]))) {
				t.Fatalf("%s float32 x[%d]=%g want %g", name, i, x[i], want[i])
			}
		}
	}
}
