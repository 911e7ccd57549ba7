package block

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// gatherPlan is a matrix whose shipped plan holds gather leaves, with
// what the plan should look like.
type gatherPlan struct {
	name    string
	l       *sparse.CSR[float64]
	inPlace bool // one gather leaf in the caller's numbering
	whole   bool // one gather leaf over the whole matrix
}

// gatherPlans covers the three shapes a gather leaf takes: the whole
// unpermuted matrix (batch's layered-10k), the whole matrix under a level
// order, whose leaf is L's rows in that order and solves in place too,
// and sub-leaves of a permuted matrix beside other leaves and squares.
func gatherPlans() []gatherPlan {
	return []gatherPlan{
		{"whole in place", gen.Layered(10_000, 512, 6, 0, 4104), true, true},
		{"whole permuted", gen.PowerLaw(12_000, 4, 0.01, 1), true, true},
		{"sub-leaves", gen.PowerLaw(40_000, 4, 0.01, 1), false, false},
	}
}

// gatherDefaults are the shipped options at three workers.
func gatherDefaults(pool exec.Launcher) Options {
	o := Defaults(exec.Device{Name: "test", Workers: 3, BlockFactor: 1024})
	o.Pool = pool
	return o
}

// gatherForms lists which triangles store the gather form.
func gatherForms(s *Solver[float64]) []bool {
	forms := make([]bool, len(s.tris))
	for i := range s.tris {
		forms[i] = s.tris[i].lower != nil
	}
	return forms
}

// checkGatherPlan checks the plan shape of p and that s solves p.l.
func checkGatherPlan(t *testing.T, p gatherPlan, s *Solver[float64], l *sparse.CSR[float64]) {
	t.Helper()
	forms := gatherForms(s)
	if !slices.Contains(forms, true) {
		t.Fatalf("no gather leaf among %d triangles", len(forms))
	}
	if whole := len(forms) == 1; whole != p.whole || s.inPlace != p.inPlace {
		t.Fatalf("whole=%v in place=%v, want %v and %v", whole, s.inPlace, p.whole, p.inPlace)
	}
	b := gen.RandVec(l.Rows, 61)
	x := make([]float64, l.Rows)
	s.Solve(b, x)
	bound := backwardBound(l, 8)
	if e := sparse.BackwardError(l, x, b, 1)[0]; !(e <= bound) {
		t.Fatalf("backward error %.3g above %.3g", e, bound)
	}
}

// TestGatherLeavesRoundTrip: a plan with gather leaves keeps its forms
// through RefreshValues, which re-derives them from new values (and
// solves an unpermuted in-place plan on the new matrix itself), and
// through WriteTo/ReadSolver, which stores them byte-stably and solves as
// the analysed plan does.
func TestGatherLeavesRoundTrip(t *testing.T) {
	pool := exec.NewPool(3)
	for _, p := range gatherPlans() {
		t.Run(p.name, func(t *testing.T) {
			s, err := Preprocess(p.l, gatherDefaults(pool))
			if err != nil {
				t.Fatal(err)
			}
			checkGatherPlan(t, p, s, p.l)
			if p.inPlace && s.perm == nil && s.tris[0].lower != p.l {
				t.Fatal("unpermuted in-place leaf is not the caller's matrix")
			}

			l2 := p.l.Clone()
			for i := 0; i < l2.Rows; i++ {
				for k := l2.RowPtr[i]; k < l2.RowPtr[i+1]-1; k++ {
					l2.Val[k] *= 0.5
				}
				l2.Val[l2.RowPtr[i+1]-1] *= 2
			}
			forms := gatherForms(s)
			if err := s.RefreshValues(l2); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gatherForms(s), forms) {
				t.Fatal("RefreshValues changed the serial forms")
			}
			if p.inPlace && s.perm == nil && s.tris[0].lower != l2 {
				t.Fatal("refreshed unpermuted in-place leaf is not the new matrix")
			}
			checkGatherPlan(t, p, s, l2)

			var first bytes.Buffer
			if _, err := s.WriteTo(&first); err != nil {
				t.Fatal(err)
			}
			back, err := ReadSolver[float64](bytes.NewReader(first.Bytes()), pool)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gatherForms(back), forms) {
				t.Fatal("the reloaded solver changed the serial forms")
			}
			checkGatherPlan(t, p, back, l2)
			var second bytes.Buffer
			if _, err := back.WriteTo(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("re-serialization drifted: %d bytes vs %d", first.Len(), second.Len())
			}
			const k = 3
			b := gen.RandVec(l2.Rows*k, 62)
			x1, x2 := make([]float64, len(b)), make([]float64, len(b))
			s.SolveBatch(b, x1, k)
			back.SolveBatch(b, x2, k)
			for i := range x1 {
				if !closeEnough(x1[i], x2[i]) {
					t.Fatalf("reloaded batch solve differs at %d: %g vs %g", i, x2[i], x1[i])
				}
			}
		})
	}
}

// TestSerializeRejectsCorruptGatherLeaf: a stream whose gather CSR is not
// a solvable lower block of its window is refused on load. Each case
// corrupts a copy of the leaf before WriteTo, so the checksum holds and
// only validation can catch it.
func TestSerializeRejectsCorruptGatherLeaf(t *testing.T) {
	pool := exec.NewPool(2)
	l := gen.Layered(10_000, 512, 6, 0, 4104)
	// Rows of the first layer hold the diagonal alone; a later row has
	// strict entries before it.
	long := l.Rows - 1
	for _, tc := range []struct {
		name   string
		mutate func(tb *triBlock[float64])
	}{
		{"unsorted row", func(tb *triBlock[float64]) {
			c := tb.lower.ColIdx[tb.lower.RowPtr[long]:]
			c[0], c[1] = c[1], c[0]
		}},
		{"entry above the diagonal", func(tb *triBlock[float64]) { tb.lower.ColIdx[tb.lower.RowPtr[0]] = 1 }},
		{"zero diagonal", func(tb *triBlock[float64]) { tb.lower.Val[tb.lower.RowPtr[long+1]-1] = 0 }},
		{"rows outside the window", func(tb *triBlock[float64]) {
			m := tb.lower
			m.Rows, m.Cols = m.Rows+1, m.Cols+1
			m.RowPtr = append(m.RowPtr, m.NNZ())
		}},
		{"gather form on a parallel kernel", func(tb *triBlock[float64]) { tb.kernel = kernels.TriLevelSet }},
		{"more levels than rows", func(tb *triBlock[float64]) { tb.feats.NLevels = tb.hi - tb.lo + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Preprocess(l, gatherDefaults(pool))
			if err != nil {
				t.Fatal(err)
			}
			if !s.inPlace {
				t.Fatal("want one in-place gather leaf")
			}
			tb := &s.tris[0]
			tb.lower = tb.lower.Clone()
			tc.mutate(tb)
			var buf bytes.Buffer
			if _, err := s.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadSolver[float64](&buf, pool); !errors.Is(err, ErrSerialize) {
				t.Fatalf("corrupt gather leaf: got %v, want ErrSerialize", err)
			}
		})
	}
}

// TestInPlacePlanAliasing: an in-place plan reads the caller's b and
// never writes it, and solves correctly when b and x are the same slice,
// for one right-hand side and for a batch.
func TestInPlacePlanAliasing(t *testing.T) {
	l := gen.Layered(10_000, 512, 6, 0, 4104)
	s, err := Preprocess(l, gatherDefaults(exec.NewPool(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !s.inPlace {
		t.Fatal("want one in-place gather leaf")
	}
	for _, k := range []int{1, 4} {
		b := gen.RandVec(l.Rows*k, 63)
		keep := slices.Clone(b)
		want := make([]float64, len(b))
		s.SolveBatch(b, want, k)
		if !slices.Equal(b, keep) {
			t.Fatalf("k=%d: the solve wrote its right-hand side", k)
		}
		bound := backwardBound(l, 0)
		for j, e := range sparse.BackwardError(l, want, b, k) {
			if !(e <= bound) {
				t.Fatalf("k=%d column %d: backward error %.3g above %.3g", k, j, e, bound)
			}
		}
		x := slices.Clone(b)
		if k == 1 {
			s.Solve(x, x)
		} else {
			s.SolveBatch(x, x, k)
		}
		if !slices.Equal(x, want) {
			t.Fatalf("k=%d: aliased solve differs from the unaliased one", k)
		}
	}
}

// TestGatherLeafRefusesMalformedRows: Preprocess and RefreshValues check a
// gather leaf as the loader does. Preprocess looks only at the last entry
// of each row, and the gather reads every other entry as a solved
// dependency, so a row with an entry above the diagonal placed before the
// diagonal would read unsolved x; the scatter's SplitDiagBlock refuses
// such a matrix, and the gather must too. A duplicate entry is refused
// for the same reason as an unsorted row: the leaf's stream would not
// reload.
func TestGatherLeafRefusesMalformedRows(t *testing.T) {
	pool := exec.NewPool(2)
	l := gen.Layered(10_000, 512, 6, 0, 4104)
	row := l.Rows / 2
	for l.RowLen(row) < 3 {
		row++
	}
	at := l.RowPtr[row+1] - 2 // the entry just before the diagonal
	for _, tc := range []struct {
		name string
		col  int
	}{
		{"entry above the diagonal", row + 3},
		{"duplicate entry", l.ColIdx[at-1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One more entry in row, before its diagonal: the rows'
			// dependencies, and so the plan, stay those of l, one
			// in-place gather leaf.
			grown := &sparse.CSR[float64]{Rows: l.Rows, Cols: l.Cols,
				RowPtr: slices.Clone(l.RowPtr),
				ColIdx: slices.Insert(slices.Clone(l.ColIdx), at, tc.col),
				Val:    slices.Insert(slices.Clone(l.Val), at, 1)}
			for i := row + 1; i <= l.Rows; i++ {
				grown.RowPtr[i]++
			}
			if _, err := Preprocess(grown, gatherDefaults(pool)); !errors.Is(err, sparse.ErrShape) {
				t.Fatalf("Preprocess: got %v, want ErrShape", err)
			}

			// The entry before the diagonal replaced instead: the same
			// entry count, so only the leaf's check can refuse the
			// refresh.
			s, err := Preprocess(l, gatherDefaults(pool))
			if err != nil {
				t.Fatal(err)
			}
			if !s.inPlace {
				t.Fatal("want one in-place gather leaf")
			}
			replaced := l.Clone()
			replaced.ColIdx[at] = tc.col
			if err := s.RefreshValues(replaced); !errors.Is(err, ErrSerialize) {
				t.Fatalf("RefreshValues: got %v, want ErrSerialize", err)
			}
		})
	}
}

// wholeLeafPlans are the benchmark's matrices (seed 4100) whose shipped
// plan is one whole gather leaf, with whether the root's level order
// moves rows: deep's banded, chain and grid5, batch's grid5, ilu0 and
// layered-10k, and serve's grid and layered.
func wholeLeafPlans(t testing.TB) []struct {
	name    string
	l       *sparse.CSR[float64]
	ordered bool
} {
	ilu0, _, err := gen.ILU0(gen.SPDGridMatrix(63, 63))
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name    string
		l       *sparse.CSR[float64]
		ordered bool
	}{
		{"deep banded", gen.Banded(12_000, 32, 0.25, 4101), true},
		{"deep chain", gen.SerialChain(6_000, 0.3, 4107), false},
		{"grid5", gen.GridLaplacian5(94, 94, 4102), true},
		{"batch ilu0", ilu0, true},
		{"batch layered-10k", gen.Layered(10_000, 512, 6, 0, 4104), false},
		{"serve grid", gen.GridLaplacian5(120, 120, 4109), true},
		{"serve layered", gen.Layered(20_000, 40, 6, 0.1, 4110), false},
	}
}

// TestWholeLeafMatchesSerialSolve: a plan that is one whole gather leaf
// solves on the caller's vectors, with no scratch, and answers bit for
// bit as kernels.SerialSolveCSR on L at k = 1 and as SerialSolveCSRBatch
// on L at k = 16, whether or not the root's level order moves rows. A
// level-ordered leaf sums each row's entries in L's order, so reordering
// the rows changes no rounding; a leaf over the permuted matrix, with
// its columns relabelled and re-sorted, would.
func TestWholeLeafMatchesSerialSolve(t *testing.T) {
	pool := exec.NewPool(3)
	for _, m := range wholeLeafPlans(t) {
		t.Run(m.name, func(t *testing.T) {
			s, err := Preprocess(m.l, gatherDefaults(pool))
			if err != nil {
				t.Fatal(err)
			}
			if len(s.tris) != 1 || s.tris[0].lower == nil || !s.inPlace {
				t.Fatalf("%d triangles, in place %v; want one in-place gather leaf", len(s.tris), s.inPlace)
			}
			if ordered := s.tris[0].ord != nil; ordered != m.ordered || (s.perm != nil) != m.ordered {
				t.Fatalf("level-ordered %v, permuted %v; want %v", ordered, s.perm != nil, m.ordered)
			}
			ses := s.NewSession()
			if ses.w != nil || ses.xp != nil {
				t.Fatal("an in-place plan's session holds scratch")
			}
			n := m.l.Rows
			for _, k := range []int{1, 16} {
				b := gen.RandVec(n*k, 64)
				want, got := make([]float64, n*k), make([]float64, n*k)
				if k == 1 {
					kernels.SerialSolveCSR(m.l, b, want, nil)
					ses.Solve(b, got)
				} else {
					kernels.SerialSolveCSRBatch(m.l, b, want, k, nil)
					ses.SolveBatch(b, got, k)
				}
				if ses.w != nil || ses.xp != nil {
					t.Fatalf("k=%d: the solve grew scratch", k)
				}
				diff := 0
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						diff++
					}
				}
				if diff != 0 {
					t.Fatalf("k=%d: %d of %d values differ from the serial gather on L", k, diff, len(want))
				}
			}
		})
	}
}
