package adapt

import (
	"math/bits"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// TriCell is one cell of the Figure-5a sweep: a generated triangular block
// with the given features and the measured GFlops of every applicable
// SpTRSV kernel, the serial one included on multi-level blocks. Best is
// the fastest parallel kernel, the one the paper's cut points are fitted
// on; the serial timing beside it fits the serial floor. It times the
// serial form the solver runs on every serial leaf of its walk, the CSR
// gather (kernels.SerialSolveCSR).
type TriCell struct {
	Features TriFeatures
	GFlops   map[kernels.TriKernel]float64
	Best     kernels.TriKernel
}

// SpMVCell is one cell of the Figure-5b sweep.
type SpMVCell struct {
	Features SpMVFeatures
	GFlops   map[kernels.SpMVKernel]float64
	Best     kernels.SpMVKernel
}

// bestTime runs fn `repeats` times and returns the fastest wall time; the
// minimum is the standard estimator for kernels this short.
func bestTime(repeats int, fn func()) time.Duration {
	if repeats < 1 {
		repeats = 1
	}
	best := time.Duration(1<<62 - 1)
	for r := 0; r < repeats; r++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

func gflops(flops int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(flops) / d.Seconds() / 1e9
}

// TuneTri measures all SpTRSV kernels over a (nnz/row × nlevels) grid of
// generated triangular blocks, regenerating the data behind Figure 5(a).
// rows is the block size; repeats picks the best-of-N timing.
func TuneTri(p exec.Launcher, rows int, nnzRowAxis []int, levelsAxis []int, repeats int, seed int64) []TriCell {
	var cells []TriCell
	for ci, deg := range nnzRowAxis {
		for cj, nlev := range levelsAxis {
			m := gen.Layered(rows, nlev, deg+1, 0, seed+int64(ci*1000+cj))
			strict, diag, err := sparse.SplitDiagCSC(m.ToCSC())
			if err != nil {
				panic("adapt: generated block not solvable: " + err.Error())
			}
			info := levelset.FromLowerCSR(m)
			cell := TriCell{
				Features: TriFeaturesOf(strict, info),
				GFlops:   make(map[kernels.TriKernel]float64),
			}
			flops := 2 * m.NNZ()
			n := m.Rows
			w := make([]float64, n)
			x := make([]float64, n)
			b := gen.RandVec(n, seed)

			if info.NLevels <= 1 {
				d := bestTime(repeats, func() {
					copy(w, b)
					kernels.TriDiagOnlySolve(p, diag, w, x)
				})
				cell.GFlops[kernels.TriCompletelyParallel] = gflops(flops, d)
			} else {
				d := bestTime(repeats, func() {
					kernels.SerialSolveCSR(m, b, x, nil)
				})
				cell.GFlops[kernels.TriSerial] = gflops(flops, d)

				d = bestTime(repeats, func() {
					copy(w, b)
					kernels.TriLevelSetSolve(p, strict, diag, info, w, x, nil)
				})
				cell.GFlops[kernels.TriLevelSet] = gflops(flops, d)

				state := kernels.NewSyncFreeState(strict)
				d = bestTime(repeats, func() {
					copy(w, b)
					kernels.TriSyncFreeSolve(p, state, strict, diag, w, x, nil)
				})
				cell.GFlops[kernels.TriSyncFree] = gflops(flops, d)

				strictCSR := strict.ToCSR()
				sched := kernels.NewMergedSchedule(info, 0, p.Workers())
				d = bestTime(repeats, func() {
					copy(w, b)
					kernels.TriCuSparseLikeSolve(p, sched, strictCSR, diag, w, x, nil)
				})
				cell.GFlops[kernels.TriCuSparseLike] = gflops(flops, d)
			}
			cell.Best = argmaxTri(cell.GFlops)
			cells = append(cells, cell)
		}
	}
	return cells
}

// TuneSpMV measures all SpMV kernels over a (nnz/row × emptyratio) grid of
// generated square blocks, regenerating the data behind Figure 5(b).
func TuneSpMV(p exec.Launcher, rows int, nnzRowAxis []int, emptyAxis []float64, repeats int, seed int64) []SpMVCell {
	var cells []SpMVCell
	for ci, deg := range nnzRowAxis {
		for cj, empty := range emptyAxis {
			// Raise per-row degree so the average over all rows (including
			// empty ones) stays near the axis value.
			rowDeg := deg
			if empty < 1 {
				rowDeg = int(float64(deg)/(1-empty) + 0.5)
			}
			if rowDeg < 1 {
				rowDeg = 1
			}
			a := gen.EmptyRowsRect(rows, rows, empty, rowDeg, seed+int64(ci*1000+cj))
			d := a.ToDCSR()
			cell := SpMVCell{
				Features: SpMVFeaturesOf(a),
				GFlops:   make(map[kernels.SpMVKernel]float64),
			}
			flops := 2 * a.NNZ()
			x := gen.RandVec(rows, seed)
			w := make([]float64, rows)

			for _, k := range []kernels.SpMVKernel{
				kernels.SpMVScalarCSR, kernels.SpMVVectorCSR,
				kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR,
			} {
				k := k
				dur := bestTime(repeats, func() {
					for i := range w {
						w[i] = 0
					}
					kernels.RunSpMV(p, k, a, d, x, w)
				})
				cell.GFlops[k] = gflops(flops, dur)
			}
			cell.Best = argmaxSpMV(cell.GFlops)
			cells = append(cells, cell)
		}
	}
	return cells
}

// argmaxTri picks the fastest parallel kernel of a cell; the serial
// timing is compared with it only by the floor's fit.
func argmaxTri(m map[kernels.TriKernel]float64) kernels.TriKernel {
	best, bestV := kernels.TriAuto, -1.0
	for k, v := range m {
		if k == kernels.TriSerial {
			continue
		}
		if v > bestV || (v == bestV && k < best) {
			best, bestV = k, v
		}
	}
	return best
}

func argmaxSpMV(m map[kernels.SpMVKernel]float64) kernels.SpMVKernel {
	best, bestV := kernels.SpMVAuto, -1.0
	for k, v := range m {
		if v > bestV || (v == bestV && k < best) {
			best, bestV = k, v
		}
	}
	return best
}

// QuickFit runs a reduced Figure-5 sweep sized for interactive use and
// returns thresholds fitted to this machine. rows is the sub-block size to
// tune at (the paper tunes at many; one mid-size block captures the
// crossovers well enough for selection).
func QuickFit(p exec.Launcher, rows, repeats int, seed int64) Thresholds {
	if rows < 512 {
		rows = 512
	}
	tri := TuneTri(p, rows,
		[]int{1, 2, 4, 8, 16, 32},
		[]int{2, 8, 32, 128, 512, 2048, 8192},
		repeats, seed)
	spmv := TuneSpMV(p, rows,
		[]int{1, 2, 4, 8, 16, 32, 64},
		[]float64{0, 0.1, 0.25, 0.5, 0.75, 0.9},
		repeats, seed+1)
	th := FitThresholds(tri, spmv)
	th.LaunchCost = exec.MeasureLaunchCost(p, 64)
	return th
}

// FitThresholds derives machine-specific decision-tree cut points from
// tuned grids, falling back to the paper's defaults wherever the data is
// inconclusive. This mirrors how the paper picks its thresholds from the
// measured heatmaps: simple axis-aligned cuts, deliberately not optimal per
// cell ("not all cells in the selected areas have exactly the same color").
func FitThresholds(tri []TriCell, spmv []SpMVCell) Thresholds {
	th := DefaultThresholds()

	// SpMV scalar/vector boundary: the smallest nnz/row at which, among
	// low-empty cells, a vector kernel wins the majority.
	if len(spmv) > 0 {
		type bucket struct{ vectorWins, total int }
		byDeg := map[int]*bucket{}
		degs := []int{}
		for _, c := range spmv {
			if c.Features.EmptyRatio > 0.3 {
				continue
			}
			d := int(c.Features.NNZPerRow + 0.5)
			b, ok := byDeg[d]
			if !ok {
				b = &bucket{}
				byDeg[d] = b
				degs = append(degs, d)
			}
			if c.Best == kernels.SpMVVectorCSR || c.Best == kernels.SpMVVectorDCSR {
				b.vectorWins++
			}
			b.total++
		}
		insertionSortInts(degs)
		for _, d := range degs {
			b := byDeg[d]
			if b.total > 0 && b.vectorWins*2 > b.total {
				th.SpMVScalarMaxNNZRow = float64(d) - 0.5
				break
			}
		}
	}

	// Tri sync-free/cuSPARSE-like boundary: the smallest nlevels from
	// which the cuSPARSE-like kernel wins every deeper bucket's majority.
	// On GPUs this sits at ~20000 levels; on a goroutine substrate the
	// merged-serial schedule starts paying off much earlier, so fitting it
	// matters for the near-serial matrices.
	if len(tri) > 0 {
		type bucket struct{ cuWins, total int }
		byLev := map[int]*bucket{}
		levs := []int{}
		for _, c := range tri {
			if c.Features.NLevels <= 1 {
				continue
			}
			l := c.Features.NLevels
			b, ok := byLev[l]
			if !ok {
				b = &bucket{}
				byLev[l] = b
				levs = append(levs, l)
			}
			if c.Best == kernels.TriCuSparseLike {
				b.cuWins++
			}
			b.total++
		}
		insertionSortInts(levs)
		// Find the deepest suffix of the level axis where cuSPARSE-like
		// holds the majority in every bucket.
		cut := -1
		for i := len(levs) - 1; i >= 0; i-- {
			b := byLev[levs[i]]
			if b.cuWins*2 > b.total {
				cut = levs[i]
			} else {
				break
			}
		}
		if cut > 1 {
			th.TriCuSparseMinLevels = cut - 1
		}
		// Chain band: among nnz/row≈1 cells below the cuSPARSE cut, the
		// deepest level count where level-set still wins.
		chain := 0
		for _, c := range tri {
			if c.Features.NNZPerRow <= 1.2 && c.Best == kernels.TriLevelSet && c.Features.NLevels > chain {
				chain = c.Features.NLevels
			}
		}
		if chain > 0 {
			th.TriChainMaxLevels = chain
		}
	}

	th.TriParallelMinWork = fitParallelMinWork(tri, th.TriParallelMinWork)

	// Tri level-set/sync-free boundary: the largest nlevels at which
	// level-set still wins a majority of low-degree cells.
	if len(tri) > 0 {
		type bucket struct{ lsWins, total int }
		byLev := map[int]*bucket{}
		levs := []int{}
		for _, c := range tri {
			if c.Features.NNZPerRow > 15 || c.Features.NLevels <= 1 {
				continue
			}
			l := c.Features.NLevels
			b, ok := byLev[l]
			if !ok {
				b = &bucket{}
				byLev[l] = b
				levs = append(levs, l)
			}
			if c.Best == kernels.TriLevelSet {
				b.lsWins++
			}
			b.total++
		}
		insertionSortInts(levs)
		cut := 0
		for _, l := range levs {
			b := byLev[l]
			if b.total > 0 && b.lsWins*2 > b.total {
				cut = l
			} else if cut > 0 {
				break
			}
		}
		if cut > 0 {
			th.TriLevelSetMaxLevels = cut
		}
	}
	return th
}

// fitParallelMinWork fits the serial floor over buckets of work per level
// between powers of two, [2^k, 2^(k+1)). Walking down from the heaviest
// bucket while the best parallel kernel beats the serial one in the
// majority of a bucket's multi-level cells, the floor is the lower edge of
// the last such bucket. When the heaviest bucket has no parallel majority,
// serial won everything the sweep measured: the floor is then that
// bucket's upper edge, or def if that is higher, since the sweep says
// nothing above it. A sweep that timed no serial cell keeps def.
func fitParallelMinWork(tri []TriCell, def int) int {
	type bucket struct{ wins, total int }
	byLog := map[int]*bucket{}
	logs := []int{}
	for _, c := range tri {
		serial, timed := c.GFlops[kernels.TriSerial]
		w := c.Features.WorkPerLevel()
		if !timed || c.Features.NLevels <= 1 || w < 1 {
			continue
		}
		k := bits.Len(uint(w)) - 1
		b, ok := byLog[k]
		if !ok {
			b = &bucket{}
			byLog[k] = b
			logs = append(logs, k)
		}
		if c.GFlops[c.Best] > serial {
			b.wins++
		}
		b.total++
	}
	if len(logs) == 0 {
		return def
	}
	insertionSortInts(logs)
	top := logs[len(logs)-1]
	cut := top + 1
	for i := len(logs) - 1; i >= 0 && 2*byLog[logs[i]].wins > byLog[logs[i]].total; i-- {
		cut = logs[i]
	}
	if cut > top {
		return max(1<<cut, def)
	}
	return 1 << cut
}

func insertionSortInts(s []int) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
