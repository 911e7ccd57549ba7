// Package adapt implements the paper's adaptive kernel selection (§3.4):
// per-sub-matrix feature extraction, the Algorithm-7 decision tree with the
// published thresholds, and the empirical tuner that regenerates the
// Figure-5 "best kernel" heatmaps from measured performance data.
package adapt

import (
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// TriFeatures are the selection features of a triangular sub-matrix:
// average strictly-lower entries per row ("nnz/row"; the separately-stored
// diagonal is excluded, so a pure chain scores 1 and a diagonal block 0)
// and the number of level sets.
type TriFeatures struct {
	Rows      int
	StrictNNZ int
	NNZPerRow float64
	NLevels   int
}

// WorkPerLevel is the block's work per level-set: rows plus strictly-lower
// entries, divided (rounding down) by the level count. It measures what one
// synchronisation step of a parallel kernel has to spread over the
// workers. A block without levels reports its whole work.
func (f TriFeatures) WorkPerLevel() int {
	if f.NLevels < 1 {
		return f.Rows + f.StrictNNZ
	}
	return (f.Rows + f.StrictNNZ) / f.NLevels
}

// NewTriFeatures derives the features of a triangular block from its
// row count, strictly-lower entry count and level count.
func NewTriFeatures(rows, strictNNZ, nlevels int) TriFeatures {
	f := TriFeatures{Rows: rows, StrictNNZ: strictNNZ, NLevels: nlevels}
	if rows > 0 {
		f.NNZPerRow = float64(strictNNZ) / float64(rows)
	}
	return f
}

// TriFeaturesOf extracts the features from a split triangular block.
func TriFeaturesOf[T sparse.Float](strict *sparse.CSC[T], info *levelset.Info) TriFeatures {
	return NewTriFeatures(strict.Rows, strict.NNZ(), info.NLevels)
}

// LeafCounts counts, over rows [lo,hi) of a lower-triangular CSR pattern,
// the entries whose column lies in [lo,row): the strictly-lower part of
// the diagonal block. The block is counted in place, without being
// extracted, and the count does not depend on the order of its rows.
func LeafCounts(rowPtr, colIdx []int, lo, hi int) (strict int) {
	for i := lo; i < hi; i++ {
		for _, j := range colIdx[rowPtr[i]:rowPtr[i+1]] {
			if j >= lo && j < i {
				strict++
			}
		}
	}
	return strict
}

// SpMVFeatures are the selection features of a square/rectangular
// sub-matrix: average entries per row (counting empty rows in the
// denominator) and the fraction of empty rows.
type SpMVFeatures struct {
	Rows       int
	NNZ        int
	NNZPerRow  float64
	EmptyRatio float64
}

// SpMVFeaturesOf extracts the features from a CSR block.
func SpMVFeaturesOf[T sparse.Float](a *sparse.CSR[T]) SpMVFeatures {
	return SpMVFeatures{
		Rows:       a.Rows,
		NNZ:        a.NNZ(),
		NNZPerRow:  a.NNZPerRow(),
		EmptyRatio: a.EmptyRowRatio(),
	}
}

// Thresholds hold the decision-tree cut points. The defaults are the
// values the paper reads off its 373,814-sample tuning run (Figure 5,
// Algorithm 7), plus one floor for work too small to parallelise on
// goroutines; FitThresholds derives machine-specific values.
type Thresholds struct {
	// TriParallelMinWork is the serial floor: a multi-level block whose
	// WorkPerLevel is below it runs the serial kernel on the calling
	// goroutine, with no launch and no atomics. The paper's GPU leaves
	// carry enough work per level to hide a barrier; a leaf of a few
	// thousand rows on goroutines does not. Above zero it also shapes the
	// recursive partition: a range the tree sends to the serial (or, with
	// one level, the completely-parallel) kernel is not split further,
	// whatever its size. Zero disables the floor, which leaves the
	// paper's size-only tree.
	TriParallelMinWork int
	// SpTRSV side (Figure 5a).
	TriLevelSetMaxNNZRow float64 // level-set wins below this nnz/row ...
	TriLevelSetMaxLevels int     // ... when nlevels is also below this
	TriChainMaxNNZRow    float64 // the nnz/row≈1 chain band ...
	TriChainMaxLevels    int     // ... extends to this many levels
	TriCuSparseMinLevels int     // cuSPARSE-like above this level count
	// SpMV side (Figure 5b).
	SpMVScalarMaxNNZRow float64 // scalar kernels at or below, vector above
	SpMVScalarDCSRMin   float64 // scalar: DCSR above this empty ratio
	SpMVVectorDCSRMin   float64 // vector: DCSR above this empty ratio
}

// DefaultThresholds returns the paper's published cut points and a serial
// floor of 4096 work per level. The floor's exact value is not verified
// end to end, and since the floor decides whole ranges of the partition,
// the benchmark sees it: the power-law matrix's top range has 11,514 work
// per level and splits under 4096, but at 16384 it runs whole as one
// serial leaf, slower (EXPERIMENTS.md, "Selection-aware recursion"). The
// committed leaf sweep (BenchmarkLeafKernels; EXPERIMENTS.md, "Why the
// block solver lost on deep") puts the crossover higher at three
// workers. FitThresholds measures it for the host.
func DefaultThresholds() Thresholds {
	return Thresholds{
		TriParallelMinWork:   4096,
		TriLevelSetMaxNNZRow: 15,
		TriLevelSetMaxLevels: 20,
		TriChainMaxNNZRow:    1,
		TriChainMaxLevels:    100,
		TriCuSparseMinLevels: 20000,
		SpMVScalarMaxNNZRow:  12,
		SpMVScalarDCSRMin:    0.50,
		SpMVVectorDCSRMin:    0.15,
	}
}

// SelectTri is the SpTRSV half of Algorithm 7's decision tree, with the
// serial floor tested right after the diagonal-only case.
func (t Thresholds) SelectTri(f TriFeatures) kernels.TriKernel {
	switch {
	case f.NLevels <= 1:
		return kernels.TriCompletelyParallel
	case f.WorkPerLevel() < t.TriParallelMinWork:
		return kernels.TriSerial
	case f.NLevels > t.TriCuSparseMinLevels:
		return kernels.TriCuSparseLike
	case f.NNZPerRow <= t.TriChainMaxNNZRow && f.NLevels <= t.TriChainMaxLevels,
		f.NNZPerRow <= t.TriLevelSetMaxNNZRow && f.NLevels <= t.TriLevelSetMaxLevels:
		return kernels.TriLevelSet
	default:
		return kernels.TriSyncFree
	}
}

// SelectSpMV is the SpMV half of Algorithm 7's decision tree.
func (t Thresholds) SelectSpMV(f SpMVFeatures) kernels.SpMVKernel {
	if f.NNZPerRow <= t.SpMVScalarMaxNNZRow {
		if f.EmptyRatio <= t.SpMVScalarDCSRMin {
			return kernels.SpMVScalarCSR
		}
		return kernels.SpMVScalarDCSR
	}
	if f.EmptyRatio <= t.SpMVVectorDCSRMin {
		return kernels.SpMVVectorCSR
	}
	return kernels.SpMVVectorDCSR
}
