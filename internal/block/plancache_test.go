package block

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/plancache"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

func openCache(t *testing.T, dir string) *plancache.Cache {
	t.Helper()
	c, err := plancache.Open(plancache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cachedOptions are the default tree's options over a cache. The tests
// that store and load a whole plan under them use grids: the walk
// level-orders a grid, so its one serial leaf is a permuted gather leaf,
// which the cache stores as its solver stream. A whole serial leaf the
// walk leaves in place, such as a gen.Layered matrix's, is stored as the
// walk's decision alone (TestPlanCacheStoresInPlacePlanAsDecision).
func cachedOptions(pool exec.Launcher, c *plancache.Cache) Options {
	return Options{
		Pool: pool, Kind: Recursive, MinBlockRows: 100,
		Reorder: true, Adaptive: true, PlanCache: c,
	}
}

// solveAgainstOracle checks one solve of the preprocessed solver against
// the serial reference on the matrix the caller says it represents.
func solveAgainstOracle(t *testing.T, s *Solver[float64], l *sparse.CSR[float64], seed int64) {
	t.Helper()
	b := gen.RandVec(l.Rows, seed)
	ref, err := kernels.NewSerialSolver(l)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, l.Rows)
	ref.Solve(b, want)
	got := make([]float64, l.Rows)
	s.Solve(b, got)
	for i := range want {
		if !closeEnough(want[i], got[i]) {
			t.Fatalf("row %d: got %g, oracle %g", i, got[i], want[i])
		}
	}
}

// TestPreprocessPlanCacheHit is the tentpole's core loop: the first
// Preprocess analyzes and stores, the second (fresh cache over the same
// directory — a restart) loads without analyzing, and both solvers agree
// with the serial oracle.
func TestPreprocessPlanCacheHit(t *testing.T) {
	dir := t.TempDir()
	pool := exec.NewPool(3)
	l := gen.GridLaplacian5(35, 35, 811)

	before := mAnalyzes.Value()
	c1 := openCache(t, dir)
	s1, err := Preprocess(l, cachedOptions(pool, c1))
	if err != nil {
		t.Fatal(err)
	}
	if got := mAnalyzes.Value() - before; got != 1 {
		t.Fatalf("cold preprocess ran %d analyses, want 1", got)
	}
	if st := c1.Stats(); st.Stores != 1 || st.Hits != 0 {
		t.Fatalf("cold stats: %+v", st)
	}
	solveAgainstOracle(t, s1, l, 812)

	warm := mAnalyzes.Value()
	c2 := openCache(t, dir)
	s2, err := Preprocess(l, cachedOptions(pool, c2))
	if err != nil {
		t.Fatal(err)
	}
	if got := mAnalyzes.Value() - warm; got != 0 {
		t.Fatalf("warm preprocess ran %d analyses, want 0", got)
	}
	if st := c2.Stats(); st.Hits != 1 {
		t.Fatalf("warm stats: %+v", st)
	}
	solveAgainstOracle(t, s2, l, 813)
}

// TestPlanCacheValuesOnlyUpdateHits pins the key's headline property end
// to end: a matrix with the same sparsity pattern but different numbers
// hits the cache (no analysis), and the loaded plan solves the NEW
// system correctly — the value-refresh path, not a stale replay.
func TestPlanCacheValuesOnlyUpdateHits(t *testing.T) {
	dir := t.TempDir()
	pool := exec.NewPool(3)
	l := gen.GridLaplacian5(35, 35, 821)
	c1 := openCache(t, dir)
	if _, err := Preprocess(l, cachedOptions(pool, c1)); err != nil {
		t.Fatal(err)
	}

	// Same structure, new numbers (diagonal stays nonzero: scaling).
	l2 := &sparse.CSR[float64]{Rows: l.Rows, Cols: l.Cols, RowPtr: l.RowPtr, ColIdx: l.ColIdx,
		Val: make([]float64, len(l.Val))}
	for i, v := range l.Val {
		l2.Val[i] = 1.75*v + 0.5
	}

	before := mAnalyzes.Value()
	c2 := openCache(t, dir)
	s2, err := Preprocess(l2, cachedOptions(pool, c2))
	if err != nil {
		t.Fatal(err)
	}
	if got := mAnalyzes.Value() - before; got != 0 {
		t.Fatalf("values-only update ran %d analyses, want 0 (cache key must exclude values)", got)
	}
	if st := c2.Stats(); st.Hits != 1 {
		t.Fatalf("values-only update missed: %+v", st)
	}
	solveAgainstOracle(t, s2, l2, 822)

	// In-process hit with changed values refreshes too (memory tier).
	l3 := &sparse.CSR[float64]{Rows: l.Rows, Cols: l.Cols, RowPtr: l.RowPtr, ColIdx: l.ColIdx,
		Val: make([]float64, len(l.Val))}
	for i, v := range l.Val {
		l3.Val[i] = -0.25 * v
	}
	s3, err := Preprocess(l3, cachedOptions(pool, c2))
	if err != nil {
		t.Fatal(err)
	}
	solveAgainstOracle(t, s3, l3, 823)
}

// TestPlanCacheKeyDiscriminatesOptions: plan-shaping options are part of
// the key, so a different partition kind cannot be served someone else's
// plan.
func TestPlanCacheKeyDiscriminatesOptions(t *testing.T) {
	dir := t.TempDir()
	pool := exec.NewPool(3)
	l := gen.GridLaplacian5(30, 30, 831)
	c := openCache(t, dir)
	for _, kind := range []Kind{Recursive, ColumnBlock, RowBlock} {
		o := cachedOptions(pool, c)
		o.Kind = kind
		o.NSeg = 4
		s, err := Preprocess(l, o)
		if err != nil {
			t.Fatalf("kind %v: %v", kind, err)
		}
		solveAgainstOracle(t, s, l, 832)
	}
	if st := c.Stats(); st.Hits != 0 || st.Stores != 3 {
		t.Fatalf("three kinds must be three distinct entries: %+v", st)
	}
	// Element width discriminates too: the float32 twin of the same
	// structure must not collide with a float64 plan.
	l32 := sparse.ConvertValues[float32](l)
	o := Options{Pool: pool, Kind: Recursive, MinBlockRows: 100, Reorder: true, Adaptive: true, PlanCache: c}
	if _, err := Preprocess(l32, o); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Stores != 4 {
		t.Fatalf("float32 twin collided with the float64 plan: %+v", st)
	}
	// The serial floor discriminates: a plan stored under the paper's
	// tree (floor 0) is a miss for the default options, whose floor gives
	// the same partition other kernels.
	paper := cachedOptions(pool, c)
	paper.Thresholds = adapt.DefaultThresholds()
	paper.Thresholds.TriParallelMinWork = 0
	s0, err := Preprocess(l, paper)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Preprocess(l, cachedOptions(pool, c))
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Stores != 6 {
		t.Fatalf("floor 0 and the default floor must be two entries: %+v", st)
	}
	if s0.TriKernelCounts()[kernels.TriSerial] != 0 || s1.TriKernelCounts()[kernels.TriSerial] == 0 {
		t.Fatalf("kernels: paper tree %v, defaults %v", s0.TriKernelCounts(), s1.TriKernelCounts())
	}
}

// TestPlanCacheConcurrentPreprocessSingleFlight floods one (matrix,
// options) pair with concurrent Preprocess calls over one cache: exactly
// one analysis may run, and every returned solver must be correct.
func TestPlanCacheConcurrentPreprocessSingleFlight(t *testing.T) {
	pool := exec.NewPool(3)
	l := gen.GridLaplacian5(32, 32, 841)
	c := openCache(t, t.TempDir())

	before := mAnalyzes.Value()
	const callers = 12
	solvers := make([]*Solver[float64], callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			s, err := Preprocess(l, cachedOptions(pool, c))
			if err != nil {
				t.Error(err)
				return
			}
			solvers[i] = s
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := mAnalyzes.Value() - before; got != 1 {
		t.Fatalf("%d concurrent Preprocess calls ran %d analyses, want 1", callers, got)
	}
	for _, s := range solvers {
		solveAgainstOracle(t, s, l, 842)
	}
}

// TestPlanCacheCorruptEntryDegrades corrupts the stored entry between two
// runs: the warm run must fall back to a full analysis, still solve
// correctly, and leave a repaired entry behind for the next run. A
// flipped byte on disk is a typed verification miss inside the cache; a
// checksum-valid payload whose plan contradicts itself passes the cache
// and is caught by the solver stream's validation.
func TestPlanCacheCorruptEntryDegrades(t *testing.T) {
	pool := exec.NewPool(3)
	// Wide enough that the default tree keeps a CSR square for the
	// incoherent-plan case to contradict.
	l := gen.Layered(4000, 4, 6, 0.2, 851)
	cases := map[string]struct {
		corrupt    func(t *testing.T, dir string)
		verifyFail bool
	}{
		"flipped byte on disk": {verifyFail: true, corrupt: func(t *testing.T, dir string) {
			entries, err := filepath.Glob(filepath.Join(dir, "*.plan"))
			if err != nil || len(entries) != 1 {
				t.Fatalf("entries: %v, %v", entries, err)
			}
			raw, err := os.ReadFile(entries[0])
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x40
			if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		"incoherent plan": {corrupt: func(t *testing.T, dir string) {
			o := cachedOptions(pool, nil)
			s, err := Preprocess(l, o)
			if err != nil {
				t.Fatal(err)
			}
			csrSquare(t, s).kernel = kernels.SpMVScalarDCSR
			payload, err := encodePlanPayload(s, l)
			if err != nil {
				t.Fatal(err)
			}
			if err := openCache(t, dir).Put(cacheKey(l, o.normalised()), payload); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := Preprocess(l, cachedOptions(pool, openCache(t, dir))); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, dir)

			before := mAnalyzes.Value()
			c2 := openCache(t, dir)
			s, err := Preprocess(l, cachedOptions(pool, c2))
			if err != nil {
				t.Fatalf("corrupt entry must degrade to analysis, not fail: %v", err)
			}
			if got := mAnalyzes.Value() - before; got != 1 {
				t.Fatalf("degraded preprocess ran %d analyses, want 1", got)
			}
			if st := c2.Stats(); tc.verifyFail && st.VerifyFails == 0 {
				t.Fatalf("corruption not classified as a verification miss: %+v", st)
			}
			solveAgainstOracle(t, s, l, 852)

			// The rebuild repaired the entry: a third run is warm again.
			warm := mAnalyzes.Value()
			s3, err := Preprocess(l, cachedOptions(pool, openCache(t, dir)))
			if err != nil {
				t.Fatal(err)
			}
			if got := mAnalyzes.Value() - warm; got != 0 {
				t.Fatalf("entry was not repaired: %d analyses on the third run", got)
			}
			solveAgainstOracle(t, s3, l, 853)
		})
	}
}

// TestRefreshValuesRejectsStructureMismatch: RefreshValues is the only
// door through which a cached plan meets new numbers, so it must slam
// shut on a matrix with different structure instead of producing a
// silently wrong solver.
func TestRefreshValuesRejectsStructureMismatch(t *testing.T) {
	pool := exec.NewPool(2)
	l := gen.Layered(600, 15, 4, 0.2, 861)
	s, err := Preprocess(l, Options{Pool: pool, Kind: Recursive, MinBlockRows: 100, Reorder: true, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RefreshValues(gen.SerialChain(500, 0.1, 862)); err == nil {
		t.Fatal("wrong-size matrix accepted")
	}
}
