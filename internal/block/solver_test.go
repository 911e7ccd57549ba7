package block

import (
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

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

// testMatrices is a small structural zoo covering every kernel-selection
// branch of the paper's tree (paperThresholds): diagonal, chain,
// shallow-wide, deep, power-law, grid.
func testMatrices() map[string]*sparse.CSR[float64] {
	return map[string]*sparse.CSR[float64]{
		"diag":      gen.DiagonalOnly(700, 1),
		"chain":     gen.SerialChain(600, 0.3, 2),
		"bipartite": gen.BipartiteBlock(800, 5, 3),
		"layered":   gen.Layered(900, 40, 5, 0.3, 4),
		"powerlaw":  gen.PowerLaw(800, 4, 0.05, 5),
		"grid":      gen.GridLaplacian5(30, 25, 6),
		"tiny":      gen.SerialChain(3, 0, 7),
	}
}

// paperThresholds is the paper's tree: the default cut points with the
// serial floor disabled. On the small matrices of these tests the default
// floor sends nearly every multi-level leaf to the serial kernel, so
// tests whose subject is the parallel kernels, or the guard, session and
// trace plumbing around them, select with this tree.
func paperThresholds() adapt.Thresholds {
	th := adapt.DefaultThresholds()
	th.TriParallelMinWork = 0
	return th
}

func TestAllKindsMatchSerialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	mats := testMatrices()
	for _, workers := range []int{1, 8} {
		pool := exec.NewPool(workers)
		for name, l := range mats {
			b := gen.RandVec(l.Rows, 91)
			want := make([]float64, l.Rows)
			ref, err := kernels.NewSerialSolver(l)
			if err != nil {
				t.Fatal(err)
			}
			ref.Solve(b, want)
			for _, kind := range []Kind{Recursive, ColumnBlock, RowBlock} {
				for _, reorder := range []bool{false, true} {
					opts := Options{
						Pool:         pool,
						Kind:         kind,
						NSeg:         1 + rng.Intn(7),
						MinBlockRows: 1 + rng.Intn(200),
						Reorder:      reorder,
					}
					// The paper's tree runs the parallel kernels; the
					// default floor runs most leaves serially.
					for _, th := range []adapt.Thresholds{paperThresholds(), adapt.DefaultThresholds()} {
						opts.Thresholds = th
						floor := th.TriParallelMinWork
						s, err := Preprocess(l, opts)
						if err != nil {
							t.Fatalf("%s/%v reorder=%v floor=%d: %v", name, kind, reorder, floor, err)
						}
						x := make([]float64, l.Rows)
						s.Solve(b, x)
						if r := residual(l, x, b); r > 1e-9 {
							t.Fatalf("workers=%d %s/%v reorder=%v floor=%d residual=%g", workers, name, kind, reorder, floor, r)
						}
						// Second solve must agree (reusable state); tolerance
						// covers atomic-accumulation order nondeterminism.
						x2 := make([]float64, l.Rows)
						s.Solve(b, x2)
						for i := range x {
							if d := math.Abs(x[i] - x2[i]); d > 1e-10*(1+math.Abs(x[i])) {
								t.Fatalf("%s/%v floor=%d: second solve differs at %d", name, kind, floor, i)
							}
						}
					}
				}
			}
		}
	}
}

func TestForcedKernelsMatchOracle(t *testing.T) {
	pool := exec.NewPool(6)
	l := gen.Layered(1200, 30, 5, 0.2, 10)
	b := gen.RandVec(l.Rows, 11)
	want := make([]float64, l.Rows)
	ref, _ := kernels.NewSerialSolver(l)
	ref.Solve(b, want)
	for _, tk := range []kernels.TriKernel{kernels.TriLevelSet, kernels.TriSyncFree, kernels.TriCuSparseLike, kernels.TriSerial} {
		for _, sk := range []kernels.SpMVKernel{kernels.SpMVScalarCSR, kernels.SpMVVectorCSR, kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR, kernels.SpMVSerial} {
			s, err := Preprocess(l, Options{
				Pool: pool, Kind: Recursive, MinBlockRows: 150,
				Reorder: true, ForceTri: tk, ForceSpMV: sk,
			})
			if err != nil {
				t.Fatalf("force %v/%v: %v", tk, sk, err)
			}
			x := make([]float64, l.Rows)
			s.Solve(b, x)
			if r := residual(l, x, b); r > 1e-9 {
				t.Fatalf("force %v/%v residual=%g", tk, sk, r)
			}
		}
	}
}

// TestForcedKernelPinsEveryBlock: a kernel forced on top of Defaults,
// which select by the decision tree, runs in every block of its kind. A
// forced triangular kernel also turns the serial floor off. The SpMV
// cases select the triangular kernels with the paper's tree, whose
// plans keep square blocks on a matrix this small.
func TestForcedKernelPinsEveryBlock(t *testing.T) {
	pool := exec.NewPool(3)
	l := gen.Layered(1200, 30, 5, 0.2, 12)
	b := gen.RandVec(l.Rows, 13)
	base := Defaults(exec.Device{Name: "test", Workers: 3, BlockFactor: 1024})
	base.Pool, base.MinBlockRows = pool, 150
	solve := func(t *testing.T, o Options) *Solver[float64] {
		t.Helper()
		s, err := Preprocess(l, o)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, l.Rows)
		s.Solve(b, x)
		if r := residual(l, x, b); r > 1e-9 {
			t.Fatalf("residual=%g", r)
		}
		return s
	}
	for _, tk := range []kernels.TriKernel{kernels.TriLevelSet, kernels.TriSyncFree, kernels.TriCuSparseLike, kernels.TriSerial} {
		t.Run("tri-"+tk.String(), func(t *testing.T) {
			o := base
			o.ForceTri = tk
			s := solve(t, o)
			if n := s.NumTriBlocks(); n < 2 || !maps.Equal(s.TriKernelCounts(), map[kernels.TriKernel]int{tk: n}) {
				t.Fatalf("tri kernel counts %v over %d blocks, want all %v", s.TriKernelCounts(), n, tk)
			}
		})
	}
	for _, sk := range []kernels.SpMVKernel{kernels.SpMVScalarCSR, kernels.SpMVVectorCSR, kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR, kernels.SpMVSerial} {
		t.Run("spmv-"+sk.String(), func(t *testing.T) {
			o := base
			o.Thresholds, o.ForceSpMV = paperThresholds(), sk
			s := solve(t, o)
			if n := s.NumSquareBlocks(); n < 1 || !maps.Equal(s.SpMVKernelCounts(), map[kernels.SpMVKernel]int{sk: n}) {
				t.Fatalf("spmv kernel counts %v over %d blocks, want all %v", s.SpMVKernelCounts(), n, sk)
			}
		})
	}
}

func TestForceCompletelyParallelRejectedOnDependentBlock(t *testing.T) {
	l := gen.SerialChain(100, 0, 1)
	_, err := Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 10, ForceTri: kernels.TriCompletelyParallel,
	})
	if err == nil {
		t.Fatal("forcing completely-parallel on a chain must fail")
	}
}

func TestAdaptiveSelectionPerStructure(t *testing.T) {
	pool := exec.NewPool(4)
	paper := paperThresholds()

	// Pure diagonal: every triangular block must select completely-parallel.
	s, err := Preprocess(gen.DiagonalOnly(5000, 1), Options{
		Pool: pool, Kind: Recursive, MinBlockRows: 500, Reorder: true,
		Thresholds: paper,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := s.TriKernelCounts()
	if len(counts) != 1 || counts[kernels.TriCompletelyParallel] == 0 {
		t.Fatalf("diag kernel counts: %v", counts)
	}

	// A single un-split very deep chain must select the cuSPARSE-like
	// kernel (nlevels > 20000 branch of Algorithm 7).
	deep := gen.SerialChain(25000, 0, 2)
	s, err = Preprocess(deep, Options{
		Pool: pool, Kind: ColumnBlock, NSeg: 1, Reorder: false,
		Thresholds: paper,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts = s.TriKernelCounts()
	if counts[kernels.TriCuSparseLike] != 1 {
		t.Fatalf("deep chain kernel counts: %v", counts)
	}

	// A shallow layered system must pick level-set for blocks with few
	// levels and short rows.
	shallow := gen.Layered(4000, 8, 3, 0, 3)
	s, err = Preprocess(shallow, Options{
		Pool: pool, Kind: ColumnBlock, NSeg: 1, Reorder: false,
		Thresholds: paper,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts = s.TriKernelCounts()
	if counts[kernels.TriLevelSet] != 1 {
		t.Fatalf("shallow kernel counts: %v", counts)
	}

	// Under the defaults, with the serial floor, every leaf of the deep
	// benchmark matrices runs serially, and a diagonal stays completely
	// parallel.
	o := Defaults(exec.Device{Name: "test", Workers: 3, BlockFactor: 1024})
	o.Pool = pool
	for name, tc := range map[string]struct {
		l    *sparse.CSR[float64]
		want kernels.TriKernel
	}{
		"banded": {gen.Banded(12000, 32, 0.25, 4101), kernels.TriSerial},
		"chain":  {gen.SerialChain(6000, 0.3, 4107), kernels.TriSerial},
		"grid5":  {gen.GridLaplacian5(94, 94, 4102), kernels.TriSerial},
		"diag":   {gen.DiagonalOnly(12000, 1), kernels.TriCompletelyParallel},
	} {
		s, err := Preprocess(tc.l, o)
		if err != nil {
			t.Fatal(err)
		}
		counts := s.TriKernelCounts()
		if len(counts) != 1 || counts[tc.want] != s.NumTriBlocks() {
			t.Errorf("%s under defaults: kernel counts %v, want all %d leaves %v", name, counts, s.NumTriBlocks(), tc.want)
		}
	}
}

func TestRecursionRespectsMinBlockRowsAndMaxDepth(t *testing.T) {
	n := 1 << 12
	l := gen.Banded(n, 4, 0.5, 20)
	// The paper's tree splits by size alone.
	s, err := Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 100, Reorder: false,
		Thresholds: paperThresholds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range s.tris {
		if size := tb.hi - tb.lo; size > 100 {
			t.Fatalf("leaf of %d rows exceeds MinBlockRows=100", size)
		}
	}
	// MaxDepth=3 -> exactly 8 leaves, 7 squares for a power-of-two size.
	s, err = Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 1, MaxDepth: 3,
		Thresholds: paperThresholds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTriBlocks() != 8 || s.NumSquareBlocks() != 7 {
		t.Fatalf("depth 3: %d tris, %d squares; want 8, 7", s.NumTriBlocks(), s.NumSquareBlocks())
	}
	// With the serial floor on, the size rule binds only ranges that
	// Algorithm 7 sends to a parallel kernel: a leaf above MinBlockRows
	// runs serial or completely-parallel.
	for name, l := range testMatrices() {
		for _, work := range []int{24, 4096} {
			s, err := Preprocess(l, Options{
				Workers: 2, Kind: Recursive, MinBlockRows: 100, Reorder: true,
				Thresholds: floorAt(work),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, tb := range s.tris {
				if size := tb.hi - tb.lo; size > 100 && tb.kernel != kernels.TriSerial && tb.kernel != kernels.TriCompletelyParallel {
					t.Fatalf("%s floor=%d: leaf [%d:%d) of %d rows runs %v", name, work, tb.lo, tb.hi, size, tb.kernel)
				}
			}
		}
	}
}

func TestSquareNNZConsistency(t *testing.T) {
	l := gen.Layered(2000, 50, 6, 0.2, 21)
	s, err := Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 100, Reorder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	triNNZ := 0
	for _, tb := range s.tris {
		triNNZ += tb.nnz()
	}
	if triNNZ+s.SquareNNZ() != l.NNZ() {
		t.Fatalf("nnz accounting: tri %d + sq %d != total %d", triNNZ, s.SquareNNZ(), l.NNZ())
	}
}

// TestReorderMovesNNZIntoSquares checks the §3.3 claim on a scrambled
// layered system: level-set reordering concentrates nonzeros in the square
// parts (deterministic given the fixed seeds).
func TestReorderMovesNNZIntoSquares(t *testing.T) {
	l := gen.Layered(3000, 60, 6, 0, 22)
	// Scramble with a random topological order so the natural layered
	// order does not already coincide with the level order.
	scramble := topoShuffle(l, rand.New(rand.NewSource(23)))
	ls, err := sparse.PermuteSym(l, scramble)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Workers: 2, Kind: Recursive, MinBlockRows: 200}
	plain, err := Preprocess(ls, base)
	if err != nil {
		t.Fatal(err)
	}
	base.Reorder = true
	reordered, err := Preprocess(ls, base)
	if err != nil {
		t.Fatal(err)
	}
	if reordered.SquareNNZ() < plain.SquareNNZ() {
		t.Fatalf("reordering reduced square nnz: %d -> %d", plain.SquareNNZ(), reordered.SquareNNZ())
	}
}

// TestReorderMatchesExtractedLevelOrder pins the in-place walk to the
// extraction it replaced: levelling and deciding a copy of each range
// (SubCSR, then FromLowerCSR and TriFeaturesOf) composes to the same
// permutation and the same leaves over the conformance corpus, as given
// and scrambled, with the serial floor on and off, and every triangular
// leaf holds the strict part and diagonal of its range of the permuted
// matrix, or, in gather form, the range itself; a level-ordered whole
// leaf holds L's rows in the extracted order, with L's columns, and L.
func TestReorderMatchesExtractedLevelOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, m := range conformanceCorpus(false) {
		scrambled, err := sparse.PermuteSym(m.l, topoShuffle(m.l, rng))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []*sparse.CSR[float64]{m.l, scrambled} {
			for _, o := range []Options{
				{Workers: 2, Kind: Recursive, MinBlockRows: 16, Reorder: true},
				{Workers: 2, Kind: Recursive, MinBlockRows: 16, Reorder: true, Thresholds: paperThresholds()},
				{Workers: 2, Kind: Recursive, MinBlockRows: 16, Reorder: true, Thresholds: floorAt(24)},
				{Workers: 2, Kind: Recursive, MinBlockRows: 100, MaxDepth: 2, Reorder: true},
				{Workers: 2, Kind: ColumnBlock, NSeg: 3, MinBlockRows: 100, Reorder: true},
			} {
				s, err := Preprocess(l, o)
				if err != nil {
					t.Fatal(err)
				}
				want, leaves := extractedReorder(t, l, o)
				floor := o.normalised().Thresholds.TriParallelMinWork
				if !reflect.DeepEqual(s.Perm(), want) {
					t.Fatalf("%s %v minrows=%d floor=%d: permutation differs from the extracted level order", m.name, o.Kind, o.MinBlockRows, floor)
				}
				if o.Kind == Recursive {
					var got [][2]int
					for i := range s.tris {
						got = append(got, [2]int{s.tris[i].lo, s.tris[i].hi})
					}
					if !reflect.DeepEqual(got, leaves) {
						t.Fatalf("%s minrows=%d floor=%d: leaves %v, extracted walk %v", m.name, o.MinBlockRows, floor, got, leaves)
					}
				}
				cur := l
				if want != nil {
					if cur, err = sparse.PermuteSym(l, want); err != nil {
						t.Fatal(err)
					}
				}
				for i := range s.tris {
					tb := &s.tris[i]
					if tb.ord != nil {
						ord := sparse.InvertPerm(want)
						rows := &sparse.CSR[float64]{RowPtr: []int{0}}
						for _, r := range ord {
							lo, hi := l.RowPtr[r], l.RowPtr[r+1]
							rows.ColIdx = append(rows.ColIdx, l.ColIdx[lo:hi]...)
							rows.Val = append(rows.Val, l.Val[lo:hi]...)
							rows.RowPtr = append(rows.RowPtr, len(rows.ColIdx))
						}
						if tb.inOrder != l || !reflect.DeepEqual(tb.ord, ord) || !reflect.DeepEqual(rows.RowPtr, tb.lower.RowPtr) ||
							!reflect.DeepEqual(rows.ColIdx, tb.lower.ColIdx) || !reflect.DeepEqual(rows.Val, tb.lower.Val) {
							t.Fatalf("%s %v: level-ordered leaf differs from L's rows in the extracted order", m.name, o.Kind)
						}
						continue
					}
					sub := sparse.SubCSR(cur, tb.lo, tb.hi, tb.lo, tb.hi)
					if tb.lower != nil {
						if !reflect.DeepEqual(sub.RowPtr, tb.lower.RowPtr) || !reflect.DeepEqual(sub.ColIdx, tb.lower.ColIdx) ||
							!reflect.DeepEqual(sub.Val, tb.lower.Val) {
							t.Fatalf("%s %v: gather leaf %d [%d:%d) differs from its extracted range", m.name, o.Kind, i, tb.lo, tb.hi)
						}
						continue
					}
					strict, diag, err := sparse.SplitDiagCSC(sub.ToCSC())
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(diag, tb.diag) || !reflect.DeepEqual(strict.ColPtr, tb.strictCSC.ColPtr) ||
						!reflect.DeepEqual(strict.RowIdx, tb.strictCSC.RowIdx) || !reflect.DeepEqual(strict.Val, tb.strictCSC.Val) {
						t.Fatalf("%s %v: leaf %d [%d:%d) differs from its extracted range", m.name, o.Kind, i, tb.lo, tb.hi)
					}
				}
			}
		}
	}
}

// floorAt is the default tree with the serial floor at work.
func floorAt(work int) adapt.Thresholds {
	th := adapt.DefaultThresholds()
	th.TriParallelMinWork = work
	return th
}

// extractedReorder is the recursion walk as it runs on extracted copies of
// each range: per depth, each range is copied out (SubCSR), levelled
// (FromLowerCSR) and, with the serial floor on, decided from its features
// (TriFeaturesOf); its level order composes into that depth's pass. It
// returns the permutation and the recursive partition's leaves in
// execution order: the reference TestReorderMatchesExtractedLevelOrder
// holds Preprocess to.
func extractedReorder(t *testing.T, l *sparse.CSR[float64], o Options) ([]int, [][2]int) {
	th := o.Thresholds
	if th == (adapt.Thresholds{}) {
		th = adapt.DefaultThresholds()
	}
	aware := o.Kind == Recursive && o.ForceTri == kernels.TriAuto && th.TriParallelMinWork > 0
	n := l.Rows
	cur := l
	var total []int
	var leaves [][2]int
	pass := [][2]int{{0, n}}
	for depth := 0; len(pass) > 0; depth++ {
		passPerm := make([]int, n)
		for i := range passPerm {
			passPerm[i] = i
		}
		changed := false
		var next [][2]int
		for _, r := range pass {
			lo, hi := r[0], r[1]
			sub := sparse.SubCSR(cur, lo, hi, lo, hi)
			info := levelset.FromLowerCSR(sub)
			leaf := o.Kind != Recursive || hi-lo <= o.MinBlockRows || hi-lo < 2 || (o.MaxDepth > 0 && depth >= o.MaxDepth)
			if !leaf && aware {
				strict, _, err := sparse.SplitDiagCSC(sub.ToCSC())
				if err != nil {
					t.Fatal(err)
				}
				k := th.SelectTri(adapt.TriFeaturesOf(strict, info))
				leaf = k == kernels.TriSerial || k == kernels.TriCompletelyParallel
			}
			for i, p := range info.Order() {
				passPerm[lo+i] = lo + p
				changed = changed || p != i
			}
			if leaf {
				leaves = append(leaves, r)
			} else {
				mid := lo + (hi-lo)/2
				next = append(next, [2]int{lo, mid}, [2]int{mid, hi})
			}
		}
		pass = next
		if !changed {
			continue
		}
		var err error
		if cur, err = sparse.PermuteSym(cur, passPerm); err != nil {
			t.Fatal(err)
		}
		if total == nil {
			total = passPerm
		} else {
			total = sparse.ComposePerm(total, passPerm)
		}
	}
	slices.SortFunc(leaves, func(a, b [2]int) int { return a[0] - b[0] })
	return total, leaves
}

// topoShuffle returns a random topological order of the lower-triangular
// dependency DAG (newIdx form), used to scramble test matrices.
func topoShuffle(l *sparse.CSR[float64], rng *rand.Rand) []int {
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
	for pos := 0; pos < n; pos++ {
		pick := rng.Intn(len(ready))
		v := ready[pick]
		ready[pick] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		newIdx[v] = pos
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
	return newIdx
}

func TestInstrumentation(t *testing.T) {
	l := gen.Layered(1500, 20, 5, 0, 24)
	s, err := Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 200, Reorder: true, Instrument: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.RandVec(l.Rows, 25)
	x := make([]float64, l.Rows)
	s.Solve(b, x)
	s.Solve(b, x)
	st := s.Stats()
	if st.Solves != 2 {
		t.Fatalf("solves=%d", st.Solves)
	}
	if st.TriCalls != 2*int64(s.NumTriBlocks()) || st.SpMVCalls != 2*int64(s.NumSquareBlocks()) {
		t.Fatalf("calls: %+v for %d tris %d squares", st, s.NumTriBlocks(), s.NumSquareBlocks())
	}
	if st.TriTime <= 0 || (s.NumSquareBlocks() > 0 && st.SpMVTime <= 0) {
		t.Fatalf("times not accumulated: %+v", st)
	}
	s.ResetStats()
	if s.Stats() != (SolveStats{}) {
		t.Fatal("ResetStats did not clear")
	}
}

func TestSolveMulti(t *testing.T) {
	l := gen.Layered(800, 10, 4, 0, 26)
	s, err := Preprocess(l, Options{Workers: 4, Kind: Recursive, MinBlockRows: 100, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	const nrhs = 5
	bs := make([][]float64, nrhs)
	xs := make([][]float64, nrhs)
	for k := range bs {
		bs[k] = gen.RandVec(l.Rows, int64(30+k))
		xs[k] = make([]float64, l.Rows)
	}
	s.SolveMulti(bs, xs)
	for k := range bs {
		if r := residual(l, xs[k], bs[k]); r > 1e-9 {
			t.Fatalf("rhs %d residual %g", k, r)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched SolveMulti")
		}
	}()
	s.SolveMulti(bs, xs[:2])
}

func TestSolvePanicsOnBadLengths(t *testing.T) {
	l := gen.DiagonalOnly(10, 1)
	s, err := Preprocess(l, Options{Workers: 1, Kind: Recursive, MinBlockRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Solve(make([]float64, 9), make([]float64, 10))
}

func TestPreprocessRejectsBadInput(t *testing.T) {
	bad := sparse.FromDense(2, 2, []float64{1, 1, 1, 1})
	if _, err := Preprocess(bad, Options{Workers: 1}); err == nil {
		t.Fatal("accepted non-triangular input")
	}
	// Singular diagonal.
	b := sparse.NewBuilder[float64](2, 2)
	b.Add(0, 0, 1)
	b.Add(1, 0, 1)
	if _, err := Preprocess(b.BuildCSR(), Options{Workers: 1}); err == nil {
		t.Fatal("accepted singular input")
	}
}

func TestSolveInPlaceAliasing(t *testing.T) {
	l := gen.Layered(500, 10, 4, 0, 27)
	s, err := Preprocess(l, Options{Workers: 2, Kind: Recursive, MinBlockRows: 64, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.RandVec(l.Rows, 28)
	bCopy := append([]float64(nil), b...)
	s.Solve(b, b) // x aliases b
	if r := residual(l, b, bCopy); r > 1e-9 {
		t.Fatalf("aliased solve residual %g", r)
	}
}

func TestFloat32Solver(t *testing.T) {
	l64 := gen.Layered(900, 15, 4, 0, 29)
	l := sparse.ConvertValues[float32](l64)
	s, err := Preprocess(l, Options{Workers: 4, Kind: Recursive, MinBlockRows: 128, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := kernels.NewSerialSolver(l)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float32, l.Rows)
	for i := range b {
		b[i] = float32(i%7) - 3
	}
	want := make([]float32, l.Rows)
	ref.Solve(b, want)
	x := make([]float32, l.Rows)
	s.Solve(b, x)
	for i := range x {
		if math.Abs(float64(x[i]-want[i])) > 1e-3*(1+math.Abs(float64(want[i]))) {
			t.Fatalf("x[%d]=%g want %g", i, x[i], want[i])
		}
	}
}

func TestNamesAndMetadata(t *testing.T) {
	l := gen.DiagonalOnly(32, 1)
	s, err := Preprocess(l, Options{Workers: 1, Kind: Recursive, MinBlockRows: 8, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows() != 32 {
		t.Fatal("Rows")
	}
	if got := s.Name(); got != "block-recursive" {
		t.Fatalf("Name: %q", got)
	}
	s2, _ := Preprocess(l, Options{Workers: 1, Kind: RowBlock, NSeg: 2})
	if got := s2.Name(); !strings.Contains(got, "row") || !strings.Contains(got, "noreorder") {
		t.Fatalf("Name: %q", got)
	}
	for k, want := range map[Kind]string{Recursive: "recursive", ColumnBlock: "column", RowBlock: "row", Kind(9): "unknown"} {
		if k.String() != want {
			t.Fatalf("Kind(%d)=%q", k, k.String())
		}
	}
	// Diagonal matrix has no strictly-lower entries anywhere.
	if s.SquareNNZ() != 0 {
		t.Fatalf("diag SquareNNZ=%d", s.SquareNNZ())
	}
	if p := s.Perm(); p != nil {
		// Reordering a diagonal matrix is the identity and may be skipped
		// entirely; if present it must be the identity.
		for i, v := range p {
			if v != i {
				t.Fatalf("non-identity perm on diagonal matrix at %d", i)
			}
		}
	}
}

func TestEmptySystem(t *testing.T) {
	l := &sparse.CSR[float64]{Rows: 0, Cols: 0, RowPtr: []int{0}}
	s, err := Preprocess(l, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Solve(nil, nil)
}

func TestDescribe(t *testing.T) {
	l := gen.Layered(2000, 30, 5, 0.1, 777)
	s, err := Preprocess(l, Options{Workers: 2, Kind: Recursive, MinBlockRows: 300, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	d := s.Describe()
	for _, want := range []string{"block-recursive", "triangular", "square blocks hold", "b-updates", "tri kernels"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe missing %q:\n%s", want, d)
		}
	}
	// Deterministic output.
	if s.Describe() != d {
		t.Fatal("Describe not deterministic")
	}
	// A diagonal system reports a single kernel class and no squares.
	sd, err := Preprocess(gen.DiagonalOnly(100, 1), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sd.Describe(), "completely-parallel") || !strings.Contains(sd.Describe(), "spmv kernels: none") {
		t.Fatalf("diag Describe:\n%s", sd.Describe())
	}
}

// TestRefreshValuesEveryBlockForm: RefreshValues re-derives every form a
// block can store: the CSC triangle of each forced kernel (with the
// cusparse-like kernel's CSR copy and the sync-free in-degrees) and the
// CSR and DCSR squares, on the paper's tree of a recursive and a column
// partition. After new values on the same pattern, the solver, a session
// made before the refresh and one made after all solve as a fresh
// Preprocess of the new matrix does, within closeEnough: the parallel
// kernels may round in a different order from one solve to the next.
func TestRefreshValuesEveryBlockForm(t *testing.T) {
	pool := exec.NewPool(3)
	l := gen.GridLaplacian5(40, 40, 871)
	l2 := l.Clone()
	for i := 0; i < l2.Rows; i++ {
		for k := l2.RowPtr[i]; k < l2.RowPtr[i+1]-1; k++ {
			l2.Val[k] *= 0.5
		}
		l2.Val[l2.RowPtr[i+1]-1] *= 2
	}
	b := gen.RandVec(l.Rows, 872)
	for _, kind := range []Kind{Recursive, ColumnBlock} {
		for _, tk := range []kernels.TriKernel{kernels.TriLevelSet, kernels.TriSyncFree, kernels.TriCuSparseLike, kernels.TriSerial} {
			for _, sk := range []kernels.SpMVKernel{kernels.SpMVScalarCSR, kernels.SpMVVectorDCSR} {
				t.Run(kind.String()+"/"+tk.String()+"/"+sk.String(), func(t *testing.T) {
					o := Options{Pool: pool, Kind: kind, NSeg: 4, MinBlockRows: 100, Reorder: true,
						Thresholds: paperThresholds(), ForceTri: tk, ForceSpMV: sk}
					s, err := Preprocess(l, o)
					if err != nil {
						t.Fatal(err)
					}
					if s.TriKernelCounts()[tk] == 0 || s.SpMVKernelCounts()[sk] == 0 {
						t.Fatalf("plan runs %v and %v, want %v and %v", s.TriKernelCounts(), s.SpMVKernelCounts(), tk, sk)
					}
					for i := range s.tris {
						if s.tris[i].lower != nil {
							t.Fatalf("triangle %d stores the gather form", i)
						}
					}
					before := s.NewSession()
					if err := s.RefreshValues(l2); err != nil {
						t.Fatal(err)
					}
					after := s.NewSession()
					fresh, err := Preprocess(l2, o)
					if err != nil {
						t.Fatal(err)
					}
					want := make([]float64, l.Rows)
					fresh.Solve(b, want)
					for _, c := range []struct {
						name  string
						solve func(b, x []float64)
					}{{"solver", s.Solve}, {"session made before", before.Solve}, {"session made after", after.Solve}} {
						got := make([]float64, l.Rows)
						c.solve(b, got)
						for i := range want {
							if !closeEnough(got[i], want[i]) {
								t.Fatalf("%s: x[%d] = %g, a fresh Preprocess solves %g", c.name, i, got[i], want[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestRefreshValuesRejectsStructureMismatch: RefreshValues is the only
// door through which an analysed plan meets new numbers, so it must slam
// shut on a matrix with different structure instead of producing a
// silently wrong solver.
func TestRefreshValuesRejectsStructureMismatch(t *testing.T) {
	pool := exec.NewPool(2)
	l := gen.Layered(600, 15, 4, 0.2, 861)
	s, err := Preprocess(l, Options{Pool: pool, Kind: Recursive, MinBlockRows: 100, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RefreshValues(gen.SerialChain(500, 0.1, 862)); err == nil {
		t.Fatal("wrong-size matrix accepted")
	}
}

// TestOptionSpaceFuzz sweeps random option combinations through the whole
// pipeline: whatever the configuration, Preprocess either returns an error
// or a solver whose solution matches the oracle. About a third of the
// cases select with the paper's tree (floor 0), so the size-only tree
// with adaptive kernels keeps random coverage next to the default floor.
func TestOptionSpaceFuzz(t *testing.T) {
	pool := exec.NewPool(3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(800)
		var l = gen.Layered(n, 1+rng.Intn(60), 1+rng.Intn(6), rng.Float64()*0.5, seed)
		o := Options{
			Pool:         pool,
			Kind:         Kind(rng.Intn(3)),
			NSeg:         rng.Intn(10),
			MinBlockRows: rng.Intn(300),
			MaxDepth:     rng.Intn(8),
			Reorder:      rng.Intn(2) == 0,
		}
		forced := rng.Intn(2) != 0
		if rng.Intn(3) == 0 {
			o.Thresholds = paperThresholds()
		}
		if forced {
			// Pick a runnable forced pair (completely-parallel cannot be
			// forced onto blocks with dependencies).
			tris := []kernels.TriKernel{kernels.TriLevelSet, kernels.TriSyncFree, kernels.TriCuSparseLike, kernels.TriSerial}
			spmvs := []kernels.SpMVKernel{kernels.SpMVScalarCSR, kernels.SpMVVectorCSR, kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR, kernels.SpMVSerial}
			o.ForceTri = tris[rng.Intn(len(tris))]
			o.ForceSpMV = spmvs[rng.Intn(len(spmvs))]
		}
		s, err := Preprocess(l, o)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		b := gen.RandVec(n, seed+1)
		x := make([]float64, n)
		s.Solve(b, x)
		return residual(l, x, b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(902))}); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveKernelsAreConcrete: the decision tree resolves every block
// to a kernel that runs, under the default floor and under the paper's
// tree, and the plan solves.
func TestAdaptiveKernelsAreConcrete(t *testing.T) {
	for _, name := range []string{"layered", "powerlaw", "chain", "diag"} {
		l := testMatrices()[name]
		b := gen.RandVec(l.Rows, 50)
		for _, th := range []adapt.Thresholds{adapt.DefaultThresholds(), paperThresholds()} {
			s, err := Preprocess(l, Options{
				Workers: 3, Kind: Recursive, MinBlockRows: 150, Reorder: true, Thresholds: th,
			})
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, l.Rows)
			s.Solve(b, x)
			if r := residual(l, x, b); r > 1e-9 {
				t.Fatalf("%s floor=%d: residual %g", name, th.TriParallelMinWork, r)
			}
			for k := range s.TriKernelCounts() {
				switch k {
				case kernels.TriCompletelyParallel, kernels.TriLevelSet,
					kernels.TriSyncFree, kernels.TriCuSparseLike, kernels.TriSerial:
				default:
					t.Fatalf("%s floor=%d: the tree chose %v", name, th.TriParallelMinWork, k)
				}
			}
			for k := range s.SpMVKernelCounts() {
				switch k {
				case kernels.SpMVScalarCSR, kernels.SpMVVectorCSR,
					kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR, kernels.SpMVSerial:
				default:
					t.Fatalf("%s floor=%d: the tree chose spmv %v", name, th.TriParallelMinWork, k)
				}
			}
		}
	}
}

// TestBlocksKeepOnlyTheirKernelsStructures: Preprocess builds what each
// block's kernel reads and nothing else: the sync-free counters for
// sync-free blocks, the strict CSR and merged schedule for cuSPARSE-like
// ones, either the scatter's strict CSC or a serial leaf's gather CSR,
// and one format per square block.
// The cases reach every kernel: the default floor's gather leaf, the
// paper's tree (level-set and sync-free with CSR and DCSR squares) and
// two forced pairs.
func TestBlocksKeepOnlyTheirKernelsStructures(t *testing.T) {
	layered := gen.Layered(2000, 40, 5, 0.2, 51)
	chain := testMatrices()["chain"]
	base := Options{Workers: 2, Kind: Recursive, MinBlockRows: 300, Reorder: true}
	paper := base
	paper.Thresholds = paperThresholds()
	forced := func(tri kernels.TriKernel, spmv kernels.SpMVKernel) Options {
		o := base
		o.ForceTri, o.ForceSpMV = tri, spmv
		return o
	}
	for _, c := range []struct {
		name string
		l    *sparse.CSR[float64]
		o    Options
	}{
		{"layered default", layered, base},
		{"layered paper", layered, paper},
		{"chain paper", chain, paper},
		{"layered cusparse/vector-dcsr", layered, forced(kernels.TriCuSparseLike, kernels.SpMVVectorDCSR)},
		{"layered sync-free/vector-csr", layered, forced(kernels.TriSyncFree, kernels.SpMVVectorCSR)},
	} {
		s, err := Preprocess(c.l, c.o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range s.tris {
			tb := &s.tris[i]
			if (tb.kernel == kernels.TriSyncFree) != (tb.state != nil) {
				t.Fatalf("%s tri %d (%v): sync-free state %v", c.name, i, tb.kernel, tb.state != nil)
			}
			cusparse := tb.kernel == kernels.TriCuSparseLike
			if cusparse != (tb.strictCSR != nil) || cusparse != (tb.sched != nil) {
				t.Fatalf("%s tri %d (%v): cusparse structures kept by the wrong kernel", c.name, i, tb.kernel)
			}
			if (tb.strictCSC == nil) == (tb.lower == nil) {
				t.Fatalf("%s tri %d: keeps both or neither of the strict CSC and the gather CSR", c.name, i)
			}
			if tb.lower != nil && tb.kernel != kernels.TriSerial {
				t.Fatalf("%s tri %d: gather CSR under %v", c.name, i, tb.kernel)
			}
		}
		for i := range s.sqs {
			sb := &s.sqs[i]
			switch sb.kernel {
			case kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR:
				if sb.csr != nil || sb.dcsr == nil {
					t.Fatalf("%s square %d: DCSR kernel kept CSR or lost DCSR", c.name, i)
				}
			default:
				if sb.dcsr != nil || sb.csr == nil {
					t.Fatalf("%s square %d: CSR kernel kept DCSR or lost CSR", c.name, i)
				}
			}
		}
		b := gen.RandVec(c.l.Rows, 52)
		x := make([]float64, c.l.Rows)
		s.Solve(b, x)
		if r := residual(c.l, x, b); r > 1e-9 {
			t.Fatalf("%s: residual %g", c.name, r)
		}
	}
}

// TestDiagonalPlanIsCompletelyParallel: under the shipped thresholds, the
// serial floor included, every block of a diagonal matrix runs the
// completely-parallel kernel.
func TestDiagonalPlanIsCompletelyParallel(t *testing.T) {
	l := gen.DiagonalOnly(1000, 1)
	s, err := Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := s.TriKernelCounts()
	if len(counts) != 1 || counts[kernels.TriCompletelyParallel] == 0 {
		t.Fatalf("diagonal kernel counts: %v", counts)
	}
}

// TestPlanVariantsSolve: on one shared three-worker pool, every test
// matrix solves under the recursive plan with level-set reordering, the
// same partition without it, and a single un-split triangle.
func TestPlanVariantsSolve(t *testing.T) {
	pool := exec.NewPool(3)
	for name, l := range testMatrices() {
		reorder := Options{
			Pool: pool, Kind: Recursive, MinBlockRows: 200, Reorder: true,
		}
		plain := reorder
		plain.Reorder = false
		unsplit := plain
		unsplit.MinBlockRows = l.Rows + 1
		b := gen.RandVec(l.Rows, 900)
		for variant, o := range map[string]Options{"reorder": reorder, "no-reorder": plain, "unsplit": unsplit} {
			s, err := Preprocess(l, o)
			if err != nil {
				t.Fatalf("%s %s: %v", name, variant, err)
			}
			if variant == "unsplit" && s.NumTriBlocks() != 1 {
				t.Fatalf("%s unsplit: %d triangular blocks", name, s.NumTriBlocks())
			}
			x := make([]float64, l.Rows)
			s.Solve(b, x)
			if r := residual(l, x, b); r > 1e-9 {
				t.Fatalf("%s %s: residual %g", name, variant, r)
			}
		}
	}
}

// TestUnsplitDiagonalIsOneTriangle: a diagonal matrix whose block floor
// exceeds its size is one triangle, its level order is the identity and
// so recorded as no permutation, and it solves.
func TestUnsplitDiagonalIsOneTriangle(t *testing.T) {
	l := gen.DiagonalOnly(500, 1)
	s, err := Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 1 << 30, Reorder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTriBlocks() != 1 {
		t.Fatalf("expected single triangle, got %d", s.NumTriBlocks())
	}
	if s.Perm() != nil {
		t.Fatal("identity level order recorded as a permutation")
	}
	b := gen.RandVec(500, 901)
	x := make([]float64, 500)
	s.Solve(b, x)
	if r := residual(l, x, b); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
}
