package block

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Every kernel applies a row's diagonal as its reciprocal, so analysis
// admits only diagonals d for which d and 1/d are both normal numbers
// (sparse.UsableDiagonal): |d| in [2⁻¹⁰²², 2¹⁰²²] for float64 and
// [2⁻¹²⁶, 2¹²⁶] for float32. These tests hold both ends of that range,
// through analysis, the solves and the loader.

// diagonalCases are the element type's out-of-range diagonals, one below
// the range and one above it, and the exponent e of its ends 2^±e.
type diagonalCase struct {
	tiny, huge float64
	e          int
}

var (
	diag64 = diagonalCase{tiny: 1e-310, huge: 1e308, e: 1022}
	diag32 = diagonalCase{tiny: 1e-39, huge: 1e38, e: 126}
)

// diagonalPlans are the option sets the diagonal tests analyse under:
// the shipped defaults, the paper's tree with the serial floor off, and
// a recursive plan forcing each dependent scatter kernel.
func diagonalPlans(pool exec.Launcher) map[string]Options {
	o := Defaults(exec.DefaultDevices()[1])
	o.Pool = pool
	floor0 := o
	floor0.Thresholds = paperThresholds()
	plans := map[string]Options{"default": o, "floor=0": floor0}
	for _, k := range []kernels.TriKernel{kernels.TriSerial, kernels.TriLevelSet, kernels.TriSyncFree, kernels.TriCuSparseLike} {
		plans["force="+k.String()] = Options{Pool: pool, Kind: Recursive, MinBlockRows: 256, Reorder: true, ForceTri: k}
	}
	return plans
}

// TestAnalyzeRefusesDiagonalOutOfRange: a diagonal whose reciprocal is
// not a normal number is refused at analysis, with an error that
// satisfies errors.Is(err, sparse.ErrSingular) and names its row, under
// every plan and with Options.Validate on.
func TestAnalyzeRefusesDiagonalOutOfRange(t *testing.T) {
	pool := exec.NewPool(3)
	t.Run("float64", func(t *testing.T) { checkAnalyzeRefuses[float64](t, pool, diag64) })
	t.Run("float32", func(t *testing.T) { checkAnalyzeRefuses[float32](t, pool, diag32) })
}

func checkAnalyzeRefuses[T sparse.Float](t *testing.T, pool exec.Launcher, c diagonalCase) {
	l := sparse.ConvertValues[T](gen.SerialChain(600, 0.3, 11))
	const row = 417
	for _, d := range []float64{c.tiny, c.huge, -c.tiny, math.NaN(), math.Inf(1)} {
		bad := l.Clone()
		bad.Val[bad.RowPtr[row+1]-1] = T(d)
		for name, o := range diagonalPlans(pool) {
			for _, validate := range []bool{false, true} {
				o.Validate = validate
				// Validate reports a NaN or an infinity as ErrNonFinite
				// before it reaches the diagonal check.
				_, err := Preprocess(bad, o)
				var zd sparse.ErrZeroDiagonal
				var nf sparse.ErrNonFinite
				switch {
				case errors.As(err, &nf):
					if !validate || nf.Row != row || !math.IsNaN(d) && !math.IsInf(d, 0) {
						t.Errorf("%T %s validate=%v: diagonal %g: got %v", T(0), name, validate, d, err)
					}
				case !errors.Is(err, sparse.ErrSingular):
					t.Errorf("%T %s validate=%v: diagonal %g: got %v, want ErrSingular", T(0), name, validate, d, err)
				case !(errors.As(err, &zd) && zd.Row == row) && !strings.Contains(err.Error(), "row 417"):
					t.Errorf("%T %s validate=%v: diagonal %g: %v does not name row %d", T(0), name, validate, d, err, row)
				}
			}
		}
	}
	// A 3×3 system whose every diagonal is below the range: unchecked,
	// SolveBatch answered ±Inf, its reciprocals having overflowed.
	b := sparse.NewBuilder[T](3, 3)
	for i := 0; i < 3; i++ {
		if i > 0 {
			b.Add(i, i-1, 1)
		}
		b.Add(i, i, T(c.tiny))
	}
	if _, err := Preprocess(b.BuildCSR(), diagonalPlans(pool)["default"]); !errors.Is(err, sparse.ErrSingular) {
		t.Errorf("%T 3×3 of diagonal %g: got %v, want ErrSingular", T(0), c.tiny, err)
	}
}

// rangeEndsLower is an n-row lower system whose diagonals are the ends
// of the solvable range, 2^e on rows i ≡ 0 (mod 3) and 2^-e on rows
// i ≡ 1, with 1 on the rest, and whose every stored value is a normal
// number. Each row reads the row before it, so the solve is one chain,
// and the rows at 2^-e read their neighbour through an entry of their
// own scale. Its right-hand side is the row's diagonal times ±[1, 1.5),
// which keeps every x below 5 in magnitude and every sum the solve and
// the backward error form below 2^(e+2), inside the type's range.
func rangeEndsLower[T sparse.Float](n, e int, rng *rand.Rand) (*sparse.CSR[T], []T) {
	big, tiny := math.Ldexp(1, e), math.Ldexp(1, -e)
	m := sparse.NewBuilder[T](n, n)
	rhs := make([]T, n)
	for i := 0; i < n; i++ {
		d := 1.0
		switch i % 3 {
		case 0:
			d = big
			if i > 0 {
				m.Add(i, i-1, T(big/32))
			}
		case 1:
			d = tiny
			m.Add(i, i-1, T(tiny))
		case 2:
			m.Add(i, i-1, 0.5)
			if i >= 3 {
				m.Add(i, i-3, -0.25)
			}
		}
		m.Add(i, i, T(d))
		beta := 1 + rng.Float64()/2
		if rng.Intn(2) == 0 {
			beta = -beta
		}
		rhs[i] = T(d * beta)
	}
	return m.BuildCSR(), rhs
}

// TestDiagonalRangeEndsSolve: diagonals at both ends of the range are
// accepted, and Solve and SolveBatch at k = 2 and 16 answer within
// backwardBound under every plan, at both element types.
func TestDiagonalRangeEndsSolve(t *testing.T) {
	pool := exec.NewPool(3)
	t.Run("float64", func(t *testing.T) { checkRangeEndsSolve[float64](t, pool, diag64.e) })
	t.Run("float32", func(t *testing.T) { checkRangeEndsSolve[float32](t, pool, diag32.e) })
}

func checkRangeEndsSolve[T sparse.Float](t *testing.T, pool exec.Launcher, e int) {
	const n = 3000
	l, rhs := rangeEndsLower[T](n, e, rand.New(rand.NewSource(int64(e))))
	check := func(what string, x, b []T, k int, bound float64) {
		t.Helper()
		for i, v := range x {
			if f := float64(v); math.IsNaN(f) || math.Abs(f) > 5 {
				t.Fatalf("%T %s: x[%d] = %g, want a finite value below 5", T(0), what, i, f)
			}
		}
		for j, be := range sparse.BackwardError(l, x, b, k) {
			if !(be <= bound) {
				t.Errorf("%T %s column %d: backward error %.3g above %.3g", T(0), what, j, be, bound)
			}
		}
	}
	for name, o := range diagonalPlans(pool) {
		s, err := Preprocess(l, o)
		if err != nil {
			t.Fatalf("%T %s: diagonals at 2^±%d refused: %v", T(0), name, e, err)
		}
		depth := 0
		for _, spec := range s.plan {
			depth = max(depth, spec.depth)
		}
		bound := backwardBound(l, depth)
		x := make([]T, n)
		s.Solve(rhs, x)
		check(name+" Solve", x, rhs, 1, bound)
		for _, k := range []int{2, 16} {
			bk, xk := make([]T, n*k), make([]T, n*k)
			for i := range bk {
				bk[i] = rhs[i/k]
			}
			s.SolveBatch(bk, xk, k)
			check(name+" SolveBatch", xk, bk, k, bound)
		}
	}
}

// TestLoadRefusesUnusableDiagonal: a stream whose triangle carries a
// diagonal outside the range does not load, whether the triangle is a
// gather leaf, stored as L with its diagonal last in each row, or a
// scatter leaf with its diagonal apart, at both element types.
func TestLoadRefusesUnusableDiagonal(t *testing.T) {
	pool := exec.NewPool(3)
	t.Run("float64", func(t *testing.T) { checkLoadRefuses[float64](t, pool, diag64) })
	t.Run("float32", func(t *testing.T) { checkLoadRefuses[float32](t, pool, diag32) })
}

func checkLoadRefuses[T sparse.Float](t *testing.T, pool exec.Launcher, c diagonalCase) {
	const row = 123
	cases := map[string]func() *Solver[T]{
		"gather leaf": func() *Solver[T] {
			s, err := Preprocess(sparse.ConvertValues[T](gen.SerialChain(600, 0.3, 12)), gatherDefaults(pool))
			if err != nil {
				t.Fatal(err)
			}
			if len(s.tris) != 1 || s.tris[0].lower == nil || s.tris[0].ord != nil {
				t.Fatal("want one in-place gather leaf")
			}
			// The leaf is the analysed matrix itself, made here.
			m := s.tris[0].lower
			m.Val[m.RowPtr[row+1]-1] = T(c.tiny)
			return s
		},
		"scatter leaf": func() *Solver[T] {
			s, err := Preprocess(sparse.ConvertValues[T](gen.SerialChain(600, 0.3, 12)),
				Options{Pool: pool, Kind: ColumnBlock, NSeg: 1, ForceTri: kernels.TriSerial})
			if err != nil {
				t.Fatal(err)
			}
			if len(s.tris) != 1 || s.tris[0].lower != nil {
				t.Fatal("want one scatter leaf")
			}
			s.tris[0].diag[row] = T(c.tiny)
			return s
		},
	}
	for name, build := range cases {
		var stream bytes.Buffer
		if _, err := build().WriteTo(&stream); err != nil {
			t.Fatal(err)
		}
		_, err := ReadSolver[T](bytes.NewReader(stream.Bytes()), pool)
		if !errors.Is(err, ErrSerialize) || !strings.Contains(err.Error(), "row 123") {
			t.Errorf("%T %s with diagonal %g: got %v, want ErrSerialize naming row %d", T(0), name, c.tiny, err, row)
		}
	}
}
