package sparse

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLowerTriangleExtractsAndInsertsDiag(t *testing.T) {
	m := FromDense(3, 3, []float64{
		0, 5, 0,
		2, 3, 7,
		1, 0, 0,
	})
	l, err := LowerTriangle(m, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{
		1, 0, 0, // unit diagonal inserted (was 0)
		2, 3, 0,
		1, 0, 1, // unit diagonal inserted (missing)
	}
	densesEqual(t, l.ToDense(), want, 0)
	if !l.IsLowerTriangular() {
		t.Fatal("result not lower triangular")
	}
	if err := CheckLowerSolvable(l); err != nil {
		t.Fatal(err)
	}
}

func TestLowerTriangleSingularWithoutInsertion(t *testing.T) {
	m := FromDense(2, 2, []float64{1, 0, 2, 0})
	if _, err := LowerTriangle(m, false); !errors.Is(err, ErrSingular) {
		t.Fatalf("got %v want ErrSingular", err)
	}
}

func TestLowerTriangleRejectsNonSquare(t *testing.T) {
	m := FromDense(2, 3, []float64{1, 0, 0, 2, 1, 0})
	if _, err := LowerTriangle(m, true); !errors.Is(err, ErrShape) {
		t.Fatalf("got %v want ErrShape", err)
	}
}

func TestUpperTriangle(t *testing.T) {
	m := FromDense(3, 3, []float64{
		4, 5, 0,
		2, 0, 7,
		1, 0, 9,
	})
	u, err := UpperTriangle(m, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{
		4, 5, 0,
		0, 1, 7, // unit diagonal inserted (was 0)
		0, 0, 9,
	}
	densesEqual(t, u.ToDense(), want, 0)
	if !u.IsUpperTriangular() {
		t.Fatal("result not upper triangular")
	}
	if _, err := UpperTriangle(FromDense(2, 2, []float64{0, 1, 0, 0}), false); !errors.Is(err, ErrSingular) {
		t.Fatal("expected ErrSingular")
	}
}

func TestCheckLowerSolvableErrors(t *testing.T) {
	// Empty row.
	b := NewBuilder[float64](2, 2)
	b.Add(0, 0, 1)
	if err := CheckLowerSolvable(b.BuildCSR()); !errors.Is(err, ErrSingular) {
		t.Fatalf("empty row: got %v", err)
	}
	// Upper entry.
	m := FromDense(2, 2, []float64{1, 5, 0, 1})
	if err := CheckLowerSolvable(m); !errors.Is(err, ErrNotTriangular) {
		t.Fatalf("upper entry: got %v", err)
	}
	// Missing diagonal but non-empty row.
	b2 := NewBuilder[float64](2, 2)
	b2.Add(0, 0, 1)
	b2.Add(1, 0, 2)
	if err := CheckLowerSolvable(b2.BuildCSR()); !errors.Is(err, ErrSingular) {
		t.Fatalf("missing diag: got %v", err)
	}
}

// TestSubBlocksMatchDense cross-checks SubCSR and SubCSC against slicing the
// dense expansion for arbitrary ranges (property-based).
func TestSubBlocksMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		rows, cols := 1+lr.Intn(15), 1+lr.Intn(15)
		m := randCSR(lr, rows, cols, 0.3)
		d := m.ToDense()
		r0 := lr.Intn(rows + 1)
		r1 := r0 + lr.Intn(rows-r0+1)
		c0 := lr.Intn(cols + 1)
		c1 := c0 + lr.Intn(cols-c0+1)

		sub := SubCSR(m, r0, r1, c0, c1)
		if err := sub.Validate(); err != nil {
			t.Logf("SubCSR invalid: %v", err)
			return false
		}
		subD := sub.ToDense()
		for i := r0; i < r1; i++ {
			for j := c0; j < c1; j++ {
				if subD[(i-r0)*(c1-c0)+j-c0] != d[i*cols+j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestSubCSRPanicsOnBadRange(t *testing.T) {
	m := Identity[float64](3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SubCSR(m, 0, 4, 0, 1)
}

func TestSplitDiagCSC(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := randLowerCSR(rng, 12, 0.3)
	strict, diag, err := SplitDiagCSC(l.ToCSC())
	if err != nil {
		t.Fatal(err)
	}
	// Reassemble and compare.
	d := strict.ToDense()
	for i := 0; i < 12; i++ {
		d[i*12+i] += diag[i]
	}
	densesEqual(t, d, l.ToDense(), 0)
}

// TestSplitDiagBlockMatchesDense: the one-pass split of a diagonal block
// reassembles to the dense block of the whole matrix.
func TestSplitDiagBlockMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		n := 1 + lr.Intn(20)
		l := randLowerCSR(lr, n, 0.3)
		d := l.ToDense()
		lo := lr.Intn(n + 1)
		hi := lo + lr.Intn(n-lo+1)
		strict, diag, err := SplitDiagBlock(l.ToCSC(), lo, hi)
		if err != nil {
			t.Logf("SplitDiagBlock [%d,%d): %v", lo, hi, err)
			return false
		}
		if err := strict.Validate(); err != nil {
			t.Logf("strict part invalid: %v", err)
			return false
		}
		m := hi - lo
		got := strict.ToDense()
		for i := 0; i < m; i++ {
			got[i*m+i] += diag[i]
			for j := 0; j < m; j++ {
				if got[i*m+j] != d[(lo+i)*n+lo+j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitDiagCSCSingular(t *testing.T) {
	b := NewBuilder[float64](2, 2)
	b.Add(0, 0, 1)
	b.Add(1, 0, 2) // row 1 has no diagonal
	if _, _, err := SplitDiagCSC(b.BuildCSC()); !errors.Is(err, ErrSingular) {
		t.Fatalf("got %v want ErrSingular", err)
	}
	// Entry above the diagonal.
	u := FromDense(2, 2, []float64{1, 3, 0, 1}).ToCSC()
	if _, _, err := SplitDiagCSC(u); !errors.Is(err, ErrNotTriangular) {
		t.Fatalf("non-lower matrix: got %v want ErrNotTriangular", err)
	}
}

func TestPermuteSymMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		n := 1 + lr.Intn(12)
		m := randCSR(lr, n, n, 0.35)
		perm := lr.Perm(n)
		pm, err := PermuteSym(m, perm)
		if err != nil {
			t.Logf("PermuteSym: %v", err)
			return false
		}
		if err := pm.Validate(); err != nil {
			t.Logf("invalid result: %v", err)
			return false
		}
		d := m.ToDense()
		pd := pm.ToDense()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if pd[perm[i]*n+perm[j]] != d[i*n+j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestPermHelpers(t *testing.T) {
	perm := []int{2, 0, 3, 1}
	if err := CheckPerm(4, perm); err != nil {
		t.Fatal(err)
	}
	if err := CheckPerm(4, []int{0, 0, 1, 2}); err == nil {
		t.Fatal("CheckPerm accepted duplicate")
	}
	if err := CheckPerm(4, []int{0, 1, 2}); err == nil {
		t.Fatal("CheckPerm accepted short perm")
	}
	inv := InvertPerm(perm)
	for i, p := range perm {
		if inv[p] != i {
			t.Fatalf("InvertPerm wrong at %d", i)
		}
	}
	id := ComposePerm(perm, inv)
	for i := range id {
		if id[i] != i {
			t.Fatalf("ComposePerm(p, p⁻¹) not identity at %d", i)
		}
	}
}

func TestPermuteVecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		n := 1 + lr.Intn(40)
		perm := lr.Perm(n)
		src := make([]float64, n)
		for i := range src {
			src[i] = lr.NormFloat64()
		}
		fwd := PermuteVec(src, perm)
		back := make([]float64, n)
		UnpermuteVecInto(back, fwd, perm)
		for i := range src {
			if back[i] != src[i] {
				return false
			}
		}
		// And the into-variant agrees with the allocating one.
		fwd2 := make([]float64, n)
		PermuteVecInto(fwd2, src, perm)
		for i := range fwd {
			if fwd[i] != fwd2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestPermuteSymLevelOrderKeepsTriangular checks the property the improved
// recursive structure relies on: permuting by any topological order of the
// dependency DAG keeps a lower-triangular matrix lower-triangular. A sorted
// identity-like order is topological here because we build the level order
// in the levelset package; this test uses the trivial ascending order and a
// dependency-respecting random order.
func TestPermuteSymLevelOrderKeepsTriangular(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := randLowerCSR(rng, 20, 0.15)
	// Build a random topological order: process vertices whose deps are done.
	n := l.Rows
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
			if l.ColIdx[k] != i {
				indeg[i]++
			}
		}
	}
	csc := l.ToCSC()
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	newIdx := make([]int, n)
	pos := 0
	for len(ready) > 0 {
		pick := rng.Intn(len(ready))
		v := ready[pick]
		ready[pick] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		newIdx[v] = pos
		pos++
		for k := csc.ColPtr[v]; k < csc.ColPtr[v+1]; k++ {
			w := csc.RowIdx[k]
			if w == v {
				continue
			}
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	if pos != n {
		t.Fatal("topological order incomplete")
	}
	pm, err := PermuteSym(l, newIdx)
	if err != nil {
		t.Fatal(err)
	}
	if !pm.IsLowerTriangular() {
		t.Fatal("topological permutation broke triangularity")
	}
}

// TestUsableDiagonal pins the solvable range at both element types: a
// diagonal d is usable exactly when d and 1/d are both normal numbers,
// |d| in [2⁻¹⁰²², 2¹⁰²²] for float64 and [2⁻¹²⁶, 2¹²⁶] for float32,
// closed at both ends, of either sign.
func TestUsableDiagonal(t *testing.T) {
	t.Run("float64", func(t *testing.T) { checkUsableDiagonal[float64](t, 1022) })
	t.Run("float32", func(t *testing.T) { checkUsableDiagonal[float32](t, 126) })
	// Float admits named types; one over float32 has float32's range.
	type single float32
	t.Run("named float32", func(t *testing.T) { checkUsableDiagonal[single](t, 126) })
}

func checkUsableDiagonal[T Float](t *testing.T, e int) {
	lo, hi := T(math.Ldexp(1, -e)), T(math.Ldexp(1, e))
	// The next values of T outside each end of the range.
	below := T(math.Nextafter32(float32(lo), 0))
	above := T(math.Nextafter32(float32(hi), float32(math.Inf(1))))
	if e == 1022 {
		below = T(math.Nextafter(float64(lo), 0))
		above = T(math.Nextafter(float64(hi), math.Inf(1)))
	}
	for _, d := range []T{lo, hi, 1, 0.5, 3} {
		if !UsableDiagonal(d) || !UsableDiagonal(-d) {
			t.Errorf("%T %g refused", d, float64(d))
		}
		// The defining property: the reciprocal is normal too.
		if r := 1 / d; !(float64(r) >= float64(lo) && float64(r) <= float64(hi)) {
			t.Errorf("%T 1/%g = %g is not in the normal range", d, float64(d), float64(r))
		}
	}
	inf := T(math.Inf(1))
	for _, d := range []T{0, below, above, inf, T(math.NaN()), T(math.Ldexp(1, -e-10))} {
		if UsableDiagonal(d) || UsableDiagonal(-d) {
			t.Errorf("%T %g accepted", d, float64(d))
		}
	}
}

// TestDiagonalChecksShareTheRange: every check of a triangular system's
// diagonal refuses one outside UsableDiagonal's range and names its row,
// at both element types.
func TestDiagonalChecksShareTheRange(t *testing.T) {
	t.Run("float64", func(t *testing.T) { checkDiagonalChecks[float64](t, []float64{1e-310, 1e308}) })
	t.Run("float32", func(t *testing.T) { checkDiagonalChecks[float32](t, []float64{1e-39, 1e38}) })
}

func checkDiagonalChecks[T Float](t *testing.T, bad []float64) {
	for _, v := range bad {
		// Row 2 of a 3×3 lower system carries the diagonal v.
		l := NewBuilder[T](3, 3)
		l.Add(0, 0, 2)
		l.Add(1, 0, 1)
		l.Add(1, 1, 2)
		l.Add(2, 1, 1)
		l.Add(2, 2, T(v))
		m := l.BuildCSR()
		if err := CheckLowerSolvable(m); !errors.Is(err, ErrSingular) || !strings.Contains(err.Error(), "row 2") {
			t.Errorf("%T CheckLowerSolvable of diagonal %g: got %v, want ErrSingular naming row 2", T(0), v, err)
		}
		var zd ErrZeroDiagonal
		if err := ValidateLower(m); !errors.As(err, &zd) || zd.Row != 2 {
			t.Errorf("%T ValidateLower of diagonal %g: got %v, want ErrZeroDiagonal{2}", T(0), v, err)
		}
		if _, _, err := SplitDiagCSC(m.ToCSC()); !errors.Is(err, ErrSingular) || !strings.Contains(err.Error(), "column 2") {
			t.Errorf("%T SplitDiagCSC of diagonal %g: got %v, want ErrSingular naming column 2", T(0), v, err)
		}
		if _, _, err := SplitDiagBlock(m.ToCSC(), 1, 3); !errors.Is(err, ErrSingular) || !strings.Contains(err.Error(), "column 1") {
			t.Errorf("%T SplitDiagBlock of diagonal %g: got %v, want ErrSingular naming local column 1", T(0), v, err)
		}
		if err := ValidateUpper(m.Transpose()); !errors.As(err, &zd) || zd.Row != 2 {
			t.Errorf("%T ValidateUpper of diagonal %g: got %v, want ErrZeroDiagonal{2}", T(0), v, err)
		}
		// The extractors refuse the diagonal, or put a unit one in its place.
		if _, err := LowerTriangle(m, false); !errors.Is(err, ErrSingular) || !strings.Contains(err.Error(), "row 2") {
			t.Errorf("%T LowerTriangle of diagonal %g: got %v, want ErrSingular naming row 2", T(0), v, err)
		}
		if _, err := UpperTriangle(m.Transpose(), false); !errors.Is(err, ErrSingular) || !strings.Contains(err.Error(), "row 2") {
			t.Errorf("%T UpperTriangle of diagonal %g: got %v, want ErrSingular naming row 2", T(0), v, err)
		}
		lo, err := LowerTriangle(m, true)
		if err != nil || lo.Val[lo.RowPtr[3]-1] != 1 || CheckLowerSolvable(lo) != nil {
			t.Errorf("%T LowerTriangle inserting over diagonal %g: got %v, %v, want a unit diagonal", T(0), v, lo, err)
		}
		up, err := UpperTriangle(m.Transpose(), true)
		if err != nil || up.Val[up.RowPtr[2]] != 1 || ValidateUpper(up) != nil {
			t.Errorf("%T UpperTriangle inserting over diagonal %g: got %v, %v, want a unit diagonal", T(0), v, up, err)
		}
	}
}
