package block

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

func TestBuildPlanInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500)
		o := Options{
			Kind:         Kind(rng.Intn(3)),
			NSeg:         1 + rng.Intn(9),
			MinBlockRows: 1 + rng.Intn(64),
			MaxDepth:     rng.Intn(6),
			Reorder:      rng.Intn(2) == 0,
		}
		if rng.Intn(2) == 0 {
			// Floor on; the zero thresholds leave the size-only tree.
			o.Thresholds = adapt.DefaultThresholds()
			o.Thresholds.TriParallelMinWork = 1 + rng.Intn(64)
		}
		l := gen.Banded(n, 1+rng.Intn(40), rng.Float64(), seed)
		_, _, tree, err := walkTree(l, o)
		if err != nil {
			return false
		}
		plan := planOf(n, o, tree)
		if n == 0 {
			return plan == nil
		}
		return planChecks(n, plan) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(100))}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanChecksCatchesBadPlans(t *testing.T) {
	bad := [][]segSpec{
		// Gap in the diagonal.
		{seg(triSeg, 0, 4, 0, 4, 0, 0), seg(triSeg, 5, 8, 5, 8, 0, 0)},
		// Square reads unsolved columns.
		{seg(triSeg, 0, 4, 0, 4, 0, 0), seg(sqSeg, 4, 8, 0, 5, 0, 0), seg(triSeg, 4, 8, 4, 8, 0, 0)},
		// Square updates already-solved rows.
		{seg(triSeg, 0, 4, 0, 4, 0, 0), seg(sqSeg, 2, 8, 0, 4, 0, 0), seg(triSeg, 4, 8, 4, 8, 0, 0)},
		// Diagonal not fully covered.
		{seg(triSeg, 0, 4, 0, 4, 0, 0)},
		// Non-square triangle spec.
		{seg(triSeg, 0, 4, 0, 5, 0, 0), seg(triSeg, 4, 8, 4, 8, 0, 0)},
	}
	for i, plan := range bad {
		if err := planChecks(8, plan); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
}

// seg is a plan spec with no walk counts, for literal plans.
func seg(kind segKind, rowLo, rowHi, colLo, colHi, depth int, stop stopReason) segSpec {
	return segSpec{kind: kind, rowLo: rowLo, rowHi: rowHi, colLo: colLo, colHi: colHi, depth: depth, stop: stop}
}

// planFor is the plan Preprocess lays out for l under o.
func planFor(t *testing.T, l *sparse.CSR[float64], o Options) []segSpec {
	t.Helper()
	_, _, tree, err := walkTree(l, o)
	if err != nil {
		t.Fatal(err)
	}
	return planOf(l.Rows, o, tree)
}

func TestColumnAndRowPlansShape(t *testing.T) {
	o := Options{Kind: ColumnBlock, NSeg: 4}
	l := gen.DiagonalOnly(100, 1)
	plan := planFor(t, l, o)
	// 4 triangles, 3 rectangles, alternating tri,sq,...,tri.
	if len(plan) != 7 {
		t.Fatalf("column plan length %d", len(plan))
	}
	if plan[0].kind != triSeg || plan[1].kind != sqSeg || plan[6].kind != triSeg {
		t.Fatalf("column plan order: %v", plan)
	}
	// Column rectangles span all remaining rows.
	if plan[1].rowHi != 100 {
		t.Fatalf("column rect rows: %v", plan[1])
	}

	o.Kind = RowBlock
	plan = planFor(t, l, o)
	if len(plan) != 7 {
		t.Fatalf("row plan length %d", len(plan))
	}
	// Row rectangles read all previous columns.
	if plan[1].kind != sqSeg || plan[1].colLo != 0 || plan[1].colHi != 25 {
		t.Fatalf("row rect: %v", plan[1])
	}
}

func TestRecursivePlanShape(t *testing.T) {
	o := Options{Kind: Recursive, MinBlockRows: 1, MaxDepth: 2}
	plan := planFor(t, gen.DenseLower(8, 1), o)
	want := []segSpec{
		seg(triSeg, 0, 2, 0, 2, 2, stopDepth),
		seg(sqSeg, 2, 4, 0, 2, 1, 0),
		seg(triSeg, 2, 4, 2, 4, 2, stopDepth),
		seg(sqSeg, 4, 8, 0, 4, 0, 0),
		seg(triSeg, 4, 6, 4, 6, 2, stopDepth),
		seg(sqSeg, 6, 8, 4, 6, 1, 0),
		seg(triSeg, 6, 8, 6, 8, 2, stopDepth),
	}
	if len(plan) != len(want) {
		t.Fatalf("plan: %v", plan)
	}
	for i := range want {
		if plan[i] != want[i] {
			t.Fatalf("plan[%d]=%v want %v", i, plan[i], want[i])
		}
	}
}

func TestNSegClampedToN(t *testing.T) {
	l := gen.SerialChain(3, 0, 1)
	plan := planFor(t, l, Options{Kind: ColumnBlock, NSeg: 10})
	if err := planChecks(3, plan); err != nil {
		t.Fatal(err)
	}
	plan = planFor(t, l, Options{Kind: RowBlock, NSeg: 10})
	if err := planChecks(3, plan); err != nil {
		t.Fatal(err)
	}
}

// walkPasses lists, per depth, the ranges walkTree levelled and reordered
// in that pass, coarsest first.
func walkPasses(t *testing.T, l *sparse.CSR[float64], o Options) [][][2]int {
	t.Helper()
	_, _, tree, err := walkTree(l, o)
	if err != nil {
		t.Fatal(err)
	}
	var passes [][][2]int
	for _, r := range tree {
		if r.depth == len(passes) {
			passes = append(passes, nil)
		}
		passes[r.depth] = append(passes[r.depth], [2]int{r.lo, r.hi})
	}
	return passes
}

func TestReorderRangesTree(t *testing.T) {
	o := Options{Kind: Recursive, MinBlockRows: 2, MaxDepth: 0, Reorder: true}
	l := gen.Banded(16, 3, 0.5, 1)
	passes := walkPasses(t, l, o)
	if len(passes) == 0 || len(passes[0]) != 1 || passes[0][0] != [2]int{0, 16} {
		t.Fatalf("pass 0: %v", passes)
	}
	if len(passes[1]) != 2 || passes[1][0] != [2]int{0, 8} || passes[1][1] != [2]int{8, 16} {
		t.Fatalf("pass 1: %v", passes[1])
	}
	// Every pass's ranges are disjoint and within bounds.
	for d, pass := range passes {
		last := 0
		for _, r := range pass {
			if r[0] < last || r[1] <= r[0] || r[1] > 16 {
				t.Fatalf("pass %d bad range %v", d, r)
			}
			last = r[1]
		}
	}
	// Panel partitions get exactly one whole-matrix pass.
	passes = walkPasses(t, l, Options{Kind: ColumnBlock, NSeg: 4, Reorder: true})
	if len(passes) != 1 || len(passes[0]) != 1 || passes[0][0] != [2]int{0, 16} {
		t.Fatalf("panel passes: %v", passes)
	}
	if walkPasses(t, gen.DiagonalOnly(0, 1), o) != nil {
		t.Fatal("empty matrix should have no passes")
	}
}

// TestTrafficMatchesPaperFormulas reproduces Tables 1 and 2: the measured
// traffic of each partition on a dense triangle equals the closed forms
// for 2^x parts. The formulas are of the paper's size-only tree, so the
// serial floor is off.
func TestTrafficMatchesPaperFormulas(t *testing.T) {
	n := 64
	l := gen.DenseLower(n, 40)
	for x := 1; x <= 4; x++ {
		parts := 1 << x
		for _, kind := range []Kind{Recursive, ColumnBlock, RowBlock} {
			o := Options{Workers: 1, Kind: kind, MinBlockRows: 1, Thresholds: paperThresholds()}
			if kind == Recursive {
				o.MaxDepth = x
			} else {
				o.NSeg = parts
			}
			s, err := Preprocess(l, o)
			if err != nil {
				t.Fatal(err)
			}
			if s.NumTriBlocks() != parts {
				t.Fatalf("%v x=%d: %d parts", kind, x, s.NumTriBlocks())
			}
			tr := s.Traffic()
			wantB := FormulaBUpdates(kind, float64(n), x)
			wantX := FormulaXLoads(kind, float64(n), x)
			if float64(tr.BUpdates) != wantB {
				t.Errorf("%v x=%d BUpdates=%d want %g", kind, x, tr.BUpdates, wantB)
			}
			if float64(tr.XLoads) != wantX {
				t.Errorf("%v x=%d XLoads=%d want %g", kind, x, tr.XLoads, wantX)
			}
		}
	}
}

func TestFormulaSpotValuesFromPaper(t *testing.T) {
	// Table 1 row "4 parts": col 2.5n, row 1.75n, rec 2n.
	n := 1.0
	cases := []struct {
		kind Kind
		x    int
		b, l float64
	}{
		{ColumnBlock, 2, 2.5, 0.75},
		{RowBlock, 2, 1.75, 1.5},
		{Recursive, 2, 2.0, 1.0},
		{ColumnBlock, 4, 8.5, 0.9375},
		{RowBlock, 4, 1.9375, 7.5},
		{Recursive, 4, 3.0, 2.0},
		{ColumnBlock, 8, 128.5, 0.99609375},
		{Recursive, 8, 5.0, 4.0},
		{Recursive, 16, 9.0, 8.0},
	}
	for _, c := range cases {
		if got := FormulaBUpdates(c.kind, n, c.x); math.Abs(got-c.b) > 1e-12 {
			t.Errorf("B %v x=%d: got %g want %g", c.kind, c.x, got, c.b)
		}
		if got := FormulaXLoads(c.kind, n, c.x); math.Abs(got-c.l) > 1e-12 {
			t.Errorf("X %v x=%d: got %g want %g", c.kind, c.x, got, c.l)
		}
	}
	if !math.IsNaN(FormulaBUpdates(Kind(9), 1, 1)) || !math.IsNaN(FormulaXLoads(Kind(9), 1, 1)) {
		t.Error("unknown kind should be NaN")
	}
}

// sizeOnlyPlan is the recursive partition as Preprocess built it before
// the recursion became selection-aware: split by size alone, every square
// kept. It is the paper's tree, the reference of TestFloorZeroKeepsPaperTree.
func sizeOnlyPlan(n int, o Options) []segSpec {
	var plan []segSpec
	var rec func(lo, hi, depth int)
	rec = func(lo, hi, depth int) {
		size := hi - lo
		if size <= o.MinBlockRows || size < 2 || (o.MaxDepth > 0 && depth >= o.MaxDepth) {
			plan = append(plan, segSpec{kind: triSeg, rowLo: lo, rowHi: hi, colLo: lo, colHi: hi, depth: depth})
			return
		}
		mid := lo + size/2
		rec(lo, mid, depth+1)
		plan = append(plan, segSpec{kind: sqSeg, rowLo: mid, rowHi: hi, colLo: lo, colHi: mid, depth: depth})
		rec(mid, hi, depth+1)
	}
	rec(0, n, 0)
	return plan
}

// sizeOnlyPerm is the reorder loop as Preprocess ran it over the size-only
// tree: per depth, every range of that depth is levelled in place and
// reordered by its level order in one pass.
func sizeOnlyPerm(t *testing.T, l *sparse.CSR[float64], o Options) []int {
	n := l.Rows
	var passes [][][2]int
	cur := [][2]int{{0, n}}
	for depth := 0; len(cur) > 0; depth++ {
		passes = append(passes, cur)
		var next [][2]int
		for _, r := range cur {
			lo, hi := r[0], r[1]
			size := hi - lo
			if size <= o.MinBlockRows || size < 2 || (o.MaxDepth > 0 && depth >= o.MaxDepth) {
				continue
			}
			mid := lo + size/2
			next = append(next, [2]int{lo, mid}, [2]int{mid, hi})
		}
		cur = next
	}
	m := l
	var total []int
	for _, pass := range passes {
		passPerm := identityPerm(n)
		changed := false
		for _, r := range pass {
			for i, p := range levelset.FromLowerPattern(m.RowPtr, m.ColIdx, r[0], r[1]).Order() {
				passPerm[r[0]+i] = r[0] + p
				changed = changed || p != i
			}
		}
		if !changed {
			continue
		}
		var err error
		if m, err = sparse.PermuteSym(m, passPerm); err != nil {
			t.Fatal(err)
		}
		if total == nil {
			total = passPerm
		} else {
			total = sparse.ComposePerm(total, passPerm)
		}
	}
	return total
}

// TestFloorZeroKeepsPaperTree: without the serial floor (floor 0 or
// forced kernels) the recursive partition is the paper's size-only
// tree bit for bit over the conformance corpus: the same specs in the
// same order, empty squares included, the same permutation and, where
// the thresholds choose them, the same kernels.
func TestFloorZeroKeepsPaperTree(t *testing.T) {
	pool := exec.NewPool(2)
	for _, m := range conformanceCorpus(false) {
		for _, o := range []Options{
			{Kind: Recursive, MinBlockRows: 16, Reorder: true, Thresholds: paperThresholds()},
			{Kind: Recursive, MinBlockRows: 50, Thresholds: paperThresholds()},
			{Kind: Recursive, MinBlockRows: 1, MaxDepth: 3, Reorder: true, Thresholds: paperThresholds()},
			{Kind: Recursive, MinBlockRows: 16, Reorder: true, ForceTri: kernels.TriSyncFree, ForceSpMV: kernels.SpMVVectorCSR},
		} {
			o.Pool = pool
			name := fmt.Sprintf("%s minrows=%d maxdepth=%d reorder=%v force=%v",
				m.name, o.MinBlockRows, o.MaxDepth, o.Reorder, o.ForceTri)
			s, err := Preprocess(m.l, o)
			if err != nil {
				t.Fatal(err)
			}
			want := sizeOnlyPlan(m.l.Rows, o)
			if len(s.steps) != len(want) {
				t.Fatalf("%s: %d steps, size-only tree has %d", name, len(s.steps), len(want))
			}
			for si, st := range s.steps {
				got := segSpec{kind: triSeg, depth: s.plan[si].depth}
				if st.kind == triSeg {
					tb := &s.tris[st.idx]
					got.rowLo, got.rowHi, got.colLo, got.colHi = tb.lo, tb.hi, tb.lo, tb.hi
				} else {
					sb := &s.sqs[st.idx]
					got.kind, got.rowLo, got.rowHi, got.colLo, got.colHi = sqSeg, sb.spec.rowLo, sb.spec.rowHi, sb.spec.colLo, sb.spec.colHi
				}
				if got != want[si] {
					t.Fatalf("%s: step %d is %v at depth %d, size-only tree has %v at depth %d", name, si, got, got.depth, want[si], want[si].depth)
				}
			}
			var wantPerm []int
			if o.Reorder {
				wantPerm = sizeOnlyPerm(t, m.l, o)
			}
			if !reflect.DeepEqual(s.Perm(), wantPerm) {
				t.Fatalf("%s: permutation differs from the size-only reorder", name)
			}
			for i := range s.tris {
				tb := &s.tris[i]
				want := o.ForceTri
				switch {
				case tb.feats.NLevels <= 1:
					want = kernels.TriCompletelyParallel
				case o.ForceTri == kernels.TriAuto:
					want = paperThresholds().SelectTri(tb.feats)
				}
				if tb.kernel != want {
					t.Fatalf("%s: leaf %d [%d:%d) runs %v, want %v", name, i, tb.lo, tb.hi, tb.kernel, want)
				}
			}
		}
	}
}
