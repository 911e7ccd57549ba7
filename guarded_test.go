package blocksptrsv_test

import (
	"context"
	"errors"
	"math"
	"testing"

	sptrsv "github.com/sss-lab/blocksptrsv"
)

// The public guarded-path surface: typed validation errors on the upper
// path, SolveContext end-to-end through UpperSolver and LUSolver, and the
// exported error aliases.

func validatedOptions(workers int) sptrsv.Options {
	o := sptrsv.DefaultOptions(workers)
	o.Validate = true
	return o
}

func TestAnalyzeUpperZeroDiagonalTypedError(t *testing.T) {
	u := buildRandomUpper(50, 0.2, 71)
	u.Val[u.RowPtr[17]] = 0 // diagonal is the first entry of an upper row
	_, err := sptrsv.AnalyzeUpper(u, validatedOptions(2))
	var zd sptrsv.ErrZeroDiagonal
	if !errors.As(err, &zd) || zd.Row != 17 {
		t.Fatalf("got %v, want ErrZeroDiagonal{17}", err)
	}
	if !errors.Is(err, sptrsv.ErrSingular) {
		t.Fatal("ErrZeroDiagonal must satisfy errors.Is(err, ErrSingular)")
	}
}

func TestAnalyzeUpperMissingDiagonalTypedError(t *testing.T) {
	// Row 3 has off-diagonal entries but no diagonal at all.
	b := sptrsv.NewBuilder[float64](6, 6)
	for i := 0; i < 6; i++ {
		if i != 3 {
			b.Add(i, i, 2)
		}
		if i+1 < 6 {
			b.Add(i, i+1, -1)
		}
	}
	_, err := sptrsv.AnalyzeUpper(b.BuildCSR(), validatedOptions(1))
	var zd sptrsv.ErrZeroDiagonal
	if !errors.As(err, &zd) || zd.Row != 3 {
		t.Fatalf("got %v, want ErrZeroDiagonal{3}", err)
	}
}

func TestAnalyzeUpperNonFiniteTypedError(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		u := buildRandomUpper(50, 0.2, 72)
		k := u.RowPtr[30] + 1 // an off-diagonal entry of row 30
		if k >= u.RowPtr[31] {
			t.Fatal("row 30 has no off-diagonal entry; reseed the generator")
		}
		u.Val[k] = bad
		_, err := sptrsv.AnalyzeUpper(u, validatedOptions(2))
		var nf sptrsv.ErrNonFinite
		if !errors.As(err, &nf) || nf.Row != 30 {
			t.Fatalf("bad=%g: got %v, want ErrNonFinite in row 30", bad, err)
		}
		if nf.Col != u.ColIdx[k] {
			t.Fatalf("bad=%g: column %d, want %d", bad, nf.Col, u.ColIdx[k])
		}
	}
}

func TestUpperSolveContextVerified(t *testing.T) {
	u := buildRandomUpper(800, 0.01, 73)
	opts := validatedOptions(3)
	opts.VerifyResidual = 1e-9
	s, err := sptrsv.AnalyzeUpper(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, u.Rows)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	x := make([]float64, u.Rows)
	if err := s.SolveContext(context.Background(), b, x); err != nil {
		t.Fatal(err)
	}
	if res := sptrsv.Residual(u, x, b); res > 1e-9 {
		t.Fatalf("residual %g", res)
	}
	if st := s.Stats(); st.Fallbacks != 0 || st.Refinements != 0 {
		t.Fatalf("clean solve recorded refinements=%d fallbacks=%d", st.Refinements, st.Fallbacks)
	}
	if err := s.SolveContext(context.Background(), b[:1], x); err == nil {
		t.Fatal("short b accepted")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.SolveContext(cancelled, b, x); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestLUSolverSolveContextAndLengthChecks(t *testing.T) {
	a := sptrsv.GridSPD(20, 20)
	l, u, err := sptrsv.ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	opts := validatedOptions(2)
	opts.VerifyResidual = 1e-8
	s, err := sptrsv.NewLUSolver(l, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, n)
	if err := s.SolveContext(context.Background(), b, x); err != nil {
		t.Fatal(err)
	}
	// L·U·x = b: check through both factors.
	y := make([]float64, n)
	sptrsv.MatVec(u, x, y)
	if res := sptrsv.Residual(l, y, b); res > 1e-8 {
		t.Fatalf("L·(U·x) residual %g", res)
	}
	if err := s.SolveContext(context.Background(), b[:3], x); err == nil {
		t.Fatal("short b accepted")
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Solve(b, x[:1])
		return nil
	}()
	if got == nil {
		t.Fatal("Solve with short x did not panic")
	}
}

func TestValidatePublicAPI(t *testing.T) {
	m := sptrsv.FromDense(2, 2, []float64{1, 0, 2, 3})
	if err := sptrsv.Validate(m); err != nil {
		t.Fatal(err)
	}
	m.Val[0] = math.Inf(1)
	var nf sptrsv.ErrNonFinite
	if err := sptrsv.Validate(m); !errors.As(err, &nf) {
		t.Fatalf("got %v, want ErrNonFinite", err)
	}
}
