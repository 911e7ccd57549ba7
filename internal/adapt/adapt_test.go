package adapt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// TestSelectTriPaperCases runs the paper's tree: the defaults with the
// serial floor disabled.
func TestSelectTriPaperCases(t *testing.T) {
	th := DefaultThresholds()
	th.TriParallelMinWork = 0
	cases := []struct {
		name string
		f    TriFeatures
		want kernels.TriKernel
	}{
		{"diagonal block", TriFeatures{Rows: 100, NLevels: 1}, kernels.TriCompletelyParallel},
		{"empty block", TriFeatures{}, kernels.TriCompletelyParallel},
		{"shallow short rows", TriFeatures{Rows: 100, NNZPerRow: 10, NLevels: 15}, kernels.TriLevelSet},
		{"chain band", TriFeatures{Rows: 100, NNZPerRow: 1, NLevels: 90}, kernels.TriLevelSet},
		{"chain too deep", TriFeatures{Rows: 100, NNZPerRow: 1, NLevels: 101}, kernels.TriSyncFree},
		{"shallow long rows", TriFeatures{Rows: 100, NNZPerRow: 40, NLevels: 10}, kernels.TriSyncFree},
		{"mid depth", TriFeatures{Rows: 100, NNZPerRow: 10, NLevels: 500}, kernels.TriSyncFree},
		{"very deep", TriFeatures{Rows: 100, NNZPerRow: 3, NLevels: 20001}, kernels.TriCuSparseLike},
		{"boundary nnz=15 lev=20", TriFeatures{Rows: 100, NNZPerRow: 15, NLevels: 20}, kernels.TriLevelSet},
		{"boundary lev=20000", TriFeatures{Rows: 100, NNZPerRow: 3, NLevels: 20000}, kernels.TriSyncFree},
	}
	for _, tc := range cases {
		if got := th.SelectTri(tc.f); got != tc.want {
			t.Errorf("%s: got %v want %v", tc.name, got, tc.want)
		}
	}
}

func TestSelectTriSerialFloor(t *testing.T) {
	th := DefaultThresholds()
	if th.TriParallelMinWork != 4096 {
		t.Fatalf("default floor: got %d want 4096", th.TriParallelMinWork)
	}
	// 4 levels over 4096 rows and 3 strictly-lower entries per row: 4096
	// work per level, exactly the floor. The paper's tree picks level-set.
	atFloor := TriFeatures{Rows: 4096, StrictNNZ: 3 * 4096, NNZPerRow: 3, NLevels: 4}
	below := atFloor
	below.StrictNNZ -= 4 // 16380 / 4 = 4095
	cases := []struct {
		name  string
		floor int
		f     TriFeatures
		want  kernels.TriKernel
	}{
		{"work at the floor stays parallel", 4096, atFloor, kernels.TriLevelSet},
		{"one unit below the floor goes serial", 4096, below, kernels.TriSerial},
		{"tiny diagonal block stays completely-parallel", 4096, TriFeatures{Rows: 3, NLevels: 1}, kernels.TriCompletelyParallel},
		{"tiny empty block stays completely-parallel", 4096, TriFeatures{}, kernels.TriCompletelyParallel},
		{"tiny deep chain goes serial", 4096, TriFeatures{Rows: 100, StrictNNZ: 99, NNZPerRow: 0.99, NLevels: 100}, kernels.TriSerial},
		{"floor 0 disables the branch", 0, TriFeatures{Rows: 100, StrictNNZ: 99, NNZPerRow: 0.99, NLevels: 100}, kernels.TriLevelSet},
		{"floor 0 keeps paper tree below old floor", 0, below, kernels.TriLevelSet},
	}
	for _, tc := range cases {
		th.TriParallelMinWork = tc.floor
		if got := th.SelectTri(tc.f); got != tc.want {
			t.Errorf("%s: work/level=%d floor=%d: got %v want %v", tc.name, tc.f.WorkPerLevel(), tc.floor, got, tc.want)
		}
	}
	if w := atFloor.WorkPerLevel(); w != 4096 {
		t.Errorf("WorkPerLevel at floor: got %d want 4096", w)
	}
	if w := below.WorkPerLevel(); w != 4095 {
		t.Errorf("WorkPerLevel below floor: got %d want 4095", w)
	}
}

func TestSelectSpMVPaperCases(t *testing.T) {
	th := DefaultThresholds()
	cases := []struct {
		name string
		f    SpMVFeatures
		want kernels.SpMVKernel
	}{
		{"short rows dense-ish", SpMVFeatures{NNZPerRow: 5, EmptyRatio: 0.2}, kernels.SpMVScalarCSR},
		{"short rows mostly empty", SpMVFeatures{NNZPerRow: 5, EmptyRatio: 0.8}, kernels.SpMVScalarDCSR},
		{"long rows few empty", SpMVFeatures{NNZPerRow: 30, EmptyRatio: 0.05}, kernels.SpMVVectorCSR},
		{"long rows many empty", SpMVFeatures{NNZPerRow: 30, EmptyRatio: 0.4}, kernels.SpMVVectorDCSR},
		{"boundary nnz=12", SpMVFeatures{NNZPerRow: 12, EmptyRatio: 0.5}, kernels.SpMVScalarCSR},
		{"boundary empty=15%", SpMVFeatures{NNZPerRow: 13, EmptyRatio: 0.15}, kernels.SpMVVectorCSR},
	}
	for _, tc := range cases {
		if got := th.SelectSpMV(tc.f); got != tc.want {
			t.Errorf("%s: got %v want %v", tc.name, got, tc.want)
		}
	}
}

// TestSelectorsTotal: the decision trees must return a concrete runnable
// kernel (never Auto; serial only on the SpTRSV side, below its floor) for
// any feature combination.
func TestSelectorsTotal(t *testing.T) {
	th := DefaultThresholds()
	f := func(rows uint16, nnzPerRow float64, nlevels uint16, empty float64) bool {
		if nnzPerRow < 0 {
			nnzPerRow = -nnzPerRow
		}
		empty = empty - float64(int(empty)) // fold into [0,1)
		if empty < 0 {
			empty += 1
		}
		tk := th.SelectTri(TriFeatures{Rows: int(rows), NNZPerRow: nnzPerRow, NLevels: int(nlevels)})
		switch tk {
		case kernels.TriCompletelyParallel, kernels.TriLevelSet, kernels.TriSyncFree, kernels.TriCuSparseLike, kernels.TriSerial:
		default:
			return false
		}
		sk := th.SelectSpMV(SpMVFeatures{Rows: int(rows), NNZPerRow: nnzPerRow, EmptyRatio: empty})
		switch sk {
		case kernels.SpMVScalarCSR, kernels.SpMVVectorCSR, kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR:
		default:
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(70))}); err != nil {
		t.Fatal(err)
	}
}

func TestTriFeaturesOf(t *testing.T) {
	m := gen.SerialChain(50, 0, 1)
	strict, _, err := sparse.SplitDiagCSC(m.ToCSC())
	if err != nil {
		t.Fatal(err)
	}
	f := TriFeaturesOf(strict, levelset.FromLowerCSR(m))
	if f.Rows != 50 || f.NLevels != 50 || f.StrictNNZ != 49 {
		t.Fatalf("features: %+v", f)
	}
	if f.NNZPerRow != 49.0/50.0 {
		t.Fatalf("nnz/row: %g", f.NNZPerRow)
	}
}

func TestSpMVFeaturesOf(t *testing.T) {
	a := gen.EmptyRowsRect(1000, 100, 0.5, 4, 2)
	f := SpMVFeaturesOf(a)
	if f.Rows != 1000 || f.NNZ != a.NNZ() {
		t.Fatalf("features: %+v", f)
	}
	if f.EmptyRatio < 0.4 || f.EmptyRatio > 0.6 {
		t.Fatalf("empty ratio: %g", f.EmptyRatio)
	}
}

func TestTuneTriProducesCompleteGrid(t *testing.T) {
	p := exec.NewPool(4)
	cells := TuneTri(p, 2000, []int{1, 8}, []int{1, 4, 64}, 2, 80)
	if len(cells) != 6 {
		t.Fatalf("cells: got %d want 6", len(cells))
	}
	for _, c := range cells {
		if len(c.GFlops) == 0 {
			t.Fatalf("cell %+v has no measurements", c.Features)
		}
		if c.Best == kernels.TriAuto {
			t.Fatalf("cell %+v has no best kernel", c.Features)
		}
		if c.Features.NLevels <= 1 && c.Best != kernels.TriCompletelyParallel {
			t.Fatalf("diagonal cell picked %v", c.Best)
		}
		if _, timed := c.GFlops[kernels.TriSerial]; timed != (c.Features.NLevels > 1) {
			t.Fatalf("cell %+v: serial timed=%v", c.Features, timed)
		}
		if c.Best == kernels.TriSerial {
			t.Fatalf("cell %+v: Best must be a parallel kernel", c.Features)
		}
		for k, v := range c.GFlops {
			if v <= 0 {
				t.Fatalf("cell %+v kernel %v has non-positive GFlops", c.Features, k)
			}
		}
	}
}

func TestTuneSpMVProducesCompleteGrid(t *testing.T) {
	p := exec.NewPool(4)
	cells := TuneSpMV(p, 2000, []int{2, 16}, []float64{0, 0.6}, 2, 81)
	if len(cells) != 4 {
		t.Fatalf("cells: got %d want 4", len(cells))
	}
	for _, c := range cells {
		if len(c.GFlops) != 4 {
			t.Fatalf("cell %+v measured %d kernels, want 4", c.Features, len(c.GFlops))
		}
		if c.Best == kernels.SpMVAuto {
			t.Fatal("no best kernel picked")
		}
	}
}

func TestFitThresholdsFallsBackOnEmptyData(t *testing.T) {
	th := FitThresholds(nil, nil)
	if th != DefaultThresholds() {
		t.Fatalf("empty data should keep defaults: %+v", th)
	}
}

func TestFitThresholdsUsesData(t *testing.T) {
	// Synthetic SpMV grid where vector kernels win from nnz/row >= 8.
	var spmv []SpMVCell
	for _, d := range []int{2, 4, 8, 16} {
		best := kernels.SpMVScalarCSR
		if d >= 8 {
			best = kernels.SpMVVectorCSR
		}
		spmv = append(spmv, SpMVCell{
			Features: SpMVFeatures{NNZPerRow: float64(d), EmptyRatio: 0.1},
			Best:     best,
		})
	}
	// Synthetic tri grid where level-set wins up to 40 levels.
	var tri []TriCell
	for _, l := range []int{5, 20, 40, 160} {
		best := kernels.TriLevelSet
		if l > 40 {
			best = kernels.TriSyncFree
		}
		tri = append(tri, TriCell{
			Features: TriFeatures{NNZPerRow: 4, NLevels: l},
			Best:     best,
		})
	}
	th := FitThresholds(tri, spmv)
	if th.SpMVScalarMaxNNZRow != 7.5 {
		t.Errorf("SpMVScalarMaxNNZRow: got %g want 7.5", th.SpMVScalarMaxNNZRow)
	}
	if th.TriLevelSetMaxLevels != 40 {
		t.Errorf("TriLevelSetMaxLevels: got %d want 40", th.TriLevelSetMaxLevels)
	}
}

// serialFloorCells is a synthetic tri sweep over work per level: blocks
// of the given rows with 1 or 2 strictly-lower entries per row over 2–64
// levels. At 1,024 rows each power-of-two bucket from [32, 64) to
// [1024, 2048) holds two cells, one at its lower edge (2048/levels) and
// one above it (3072/levels); 16 times the rows moves every bucket up by
// four. parallelWins says which cells the best parallel kernel wins
// against the serial one.
func serialFloorCells(rows int, parallelWins func(work int) bool) []TriCell {
	var tri []TriCell
	for _, deg := range []int{1, 2} {
		for _, levels := range []int{2, 4, 8, 16, 32, 64} {
			f := TriFeatures{Rows: rows, StrictNNZ: deg * rows, NNZPerRow: float64(deg), NLevels: levels}
			g := map[kernels.TriKernel]float64{kernels.TriSerial: 1, kernels.TriSyncFree: 0.5}
			if parallelWins(f.WorkPerLevel()) {
				g[kernels.TriSyncFree] = 2
			}
			tri = append(tri, TriCell{Features: f, GFlops: g, Best: kernels.TriSyncFree})
		}
	}
	// A diagonal cell never counts.
	tri = append(tri, TriCell{
		Features: TriFeatures{Rows: 1024, NLevels: 1},
		GFlops:   map[kernels.TriKernel]float64{kernels.TriCompletelyParallel: 9},
		Best:     kernels.TriCompletelyParallel,
	})
	return tri
}

func TestFitThresholdsSerialFloor(t *testing.T) {
	def := DefaultThresholds().TriParallelMinWork
	cases := []struct {
		name string
		rows int
		wins func(work int) bool
		want int
	}{
		{"parallel wins from 512", 1024, func(w int) bool { return w >= 512 }, 512},
		{"parallel wins only the heaviest bucket", 1024, func(w int) bool { return w >= 1024 }, 1024},
		{"parallel wins everywhere", 1024, func(int) bool { return true }, 32},
		{"serial wins everywhere below the default keeps the default", 1024, func(int) bool { return false }, def},
		{"serial wins everywhere above the default: floor at the sweep's top", 16 * 1024, func(int) bool { return false }, 32768},
		{"heavy sweep, parallel wins from 8192", 16 * 1024, func(w int) bool { return w >= 8192 }, 8192},
		{"light wins below a losing bucket do not count", 1024, func(w int) bool { return w >= 512 || w <= 64 }, 512},
		{"a split bucket is no majority and ends the run", 1024, func(w int) bool { return w >= 512 && w != 768 }, 1024},
	}
	for _, tc := range cases {
		if got := FitThresholds(serialFloorCells(tc.rows, tc.wins), nil).TriParallelMinWork; got != tc.want {
			t.Errorf("%s: got %d want %d", tc.name, got, tc.want)
		}
	}
	// A sweep that timed no serial cell says nothing about the floor.
	untimed := serialFloorCells(16*1024, func(int) bool { return false })
	for _, c := range untimed {
		delete(c.GFlops, kernels.TriSerial)
	}
	if got := FitThresholds(untimed, nil).TriParallelMinWork; got != def {
		t.Errorf("no serial timings: got %d want the default %d", got, def)
	}
	// The paper's cut points still fit on the best parallel kernel: cells
	// that only move the floor leave them at their defaults.
	th := FitThresholds(serialFloorCells(1024, func(w int) bool { return w >= 512 }), nil)
	th.TriParallelMinWork = def
	if th != DefaultThresholds() {
		t.Errorf("cut points other than the floor moved: %+v", th)
	}
}

// TestLeafCounts counts a hand-built pattern: in place, and over a
// window that drops the entries left of it.
func TestLeafCounts(t *testing.T) {
	n := 3000
	b := sparse.NewBuilder[float64](n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	b.Add(2000, 0, 1)
	b.Add(2000, 1999, 1)
	b.Add(2999, 1500, 1)
	l := b.BuildCSR()
	for _, c := range []struct {
		name       string
		lo, hi     int
		wantStrict int
	}{
		{"whole", 0, n, 3},
		{"window", 1000, n, 2},
	} {
		if strict := LeafCounts(l.RowPtr, l.ColIdx, c.lo, c.hi); strict != c.wantStrict {
			t.Errorf("%s: strict=%d, want %d", c.name, strict, c.wantStrict)
		}
	}
}
