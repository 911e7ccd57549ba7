// Package levelset computes the level-set decomposition of a sparse lower
// triangular matrix (Anderson & Saad; Saltz). Component i's level is the
// length of the longest dependency chain ending at i; all components in one
// level are mutually independent and can be solved in parallel, while
// levels must be processed in order.
//
// The package also exposes the per-level parallelism statistics the paper
// reports in Table 4 and the level-order permutation used by the improved
// recursive block structure (§3.3).
package levelset

import (
	"fmt"

	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Info is the level-set decomposition of a lower triangular matrix.
type Info struct {
	N       int
	NLevels int
	// Level[i] is the level of component i (0-based).
	Level []int
	// LevelPtr/LevelItem list the components of each level:
	// level l owns LevelItem[LevelPtr[l]:LevelPtr[l+1]], ascending within
	// the level.
	LevelPtr  []int
	LevelItem []int
}

// FromLowerCSR computes the decomposition from a lower triangular CSR
// matrix. Diagonal entries are ignored; strictly-lower entries are
// dependencies. The matrix must be lower triangular (callers validate).
func FromLowerCSR[T sparse.Float](m *sparse.CSR[T]) *Info {
	return FromLowerPattern(m.RowPtr, m.ColIdx, 0, m.Rows)
}

// FromLowerCSC computes the decomposition from a lower triangular CSC
// matrix by walking columns in ascending order: column j's sub-diagonal
// entries (i > j) mark i as depending on j.
func FromLowerCSC[T sparse.Float](m *sparse.CSC[T]) *Info {
	n := m.Cols
	colPtr := m.ColPtr
	level := make([]int, n)
	for j := 0; j < n; j++ {
		lj := level[j]
		// Re-slice the column window so the per-nonzero walk carries no
		// bounds checks on RowIdx (DESIGN.md §6.9).
		rows := m.RowIdx[colPtr[j]:colPtr[j+1]]
		for k := range rows {
			i := rows[k]
			if i <= j {
				continue
			}
			if lj+1 > level[i] {
				level[i] = lj + 1
			}
		}
	}
	return fromLevels(n, level)
}

// FromLowerPattern computes the decomposition of the diagonal block
// [lo,hi)×[lo,hi) of a lower triangular CSR pattern given as raw
// pointer/index arrays, in the block's local numbering. Entries left of
// lo (dependencies on earlier blocks) and entries with col >= row are
// ignored, so a matrix with an explicit diagonal works unchanged and a
// block is analysed in place, without being extracted. It is a single
// pass over the block's entries because rows ascend and every dependency
// of row i has index < i.
func FromLowerPattern(rowPtr, colIdx []int, lo, hi int) *Info {
	n := hi - lo
	level := make([]int, n)
	for i := 0; i < n; i++ {
		li := 0
		// Re-slice the row window so the per-nonzero walk carries no
		// bounds checks on ColIdx; level[j] is in bounds once 0 <= j < i
		// is established (i < n = len(level)).
		cols := colIdx[rowPtr[lo+i]:rowPtr[lo+i+1]]
		for k := range cols {
			j := cols[k] - lo
			if j < 0 || j >= i {
				continue
			}
			if lj := level[j] + 1; lj > li {
				li = lj
			}
		}
		level[i] = li
	}
	return fromLevels(n, level)
}

// fromLevels finishes the decomposition by counting-sort over levels. The
// sort is stable, so components keep ascending order inside each level.
func fromLevels(n int, level []int) *Info {
	nlev := 0
	for _, l := range level {
		if l+1 > nlev {
			nlev = l + 1
		}
	}
	ptr := make([]int, nlev+1)
	for _, l := range level {
		ptr[l+1]++
	}
	for l := 0; l < nlev; l++ {
		ptr[l+1] += ptr[l]
	}
	item := make([]int, n)
	next := append([]int(nil), ptr...)
	for i := 0; i < n; i++ {
		item[next[level[i]]] = i
		next[level[i]]++
	}
	return &Info{N: n, NLevels: nlev, Level: level, LevelPtr: ptr, LevelItem: item}
}

// LevelSize returns the number of components in level l.
func (in *Info) LevelSize(l int) int { return in.LevelPtr[l+1] - in.LevelPtr[l] }

// Order returns the level-order permutation as newIdx[old] = new position.
// Sorting components by level (stable in original index) is a topological
// order of the dependency DAG, so sparse.PermuteSym with this permutation
// keeps the matrix lower triangular (§3.3 of the paper).
func (in *Info) Order() []int {
	newIdx := make([]int, in.N)
	for pos, old := range in.LevelItem {
		newIdx[old] = pos
	}
	return newIdx
}

// Stats summarises per-level parallelism: the "#level-sets" and
// "Parallelism (min/ave./max)" columns of Table 4.
type Stats struct {
	NLevels  int
	MinWidth int
	AvgWidth float64
	MaxWidth int
}

// Stats computes the parallelism statistics of the decomposition.
func (in *Info) Stats() Stats {
	if in.NLevels == 0 {
		return Stats{}
	}
	s := Stats{NLevels: in.NLevels, MinWidth: in.N}
	for l := 0; l < in.NLevels; l++ {
		w := in.LevelSize(l)
		if w < s.MinWidth {
			s.MinWidth = w
		}
		if w > s.MaxWidth {
			s.MaxWidth = w
		}
	}
	s.AvgWidth = float64(in.N) / float64(in.NLevels)
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("levels=%d width(min/avg/max)=%d/%.1f/%d", s.NLevels, s.MinWidth, s.AvgWidth, s.MaxWidth)
}

// Validate checks the internal invariants of the decomposition against the
// matrix pattern it was computed from: the level arrays partition 0..n-1,
// every dependency sits in a strictly earlier level, and every non-root
// component has a dependency in the immediately preceding level (levels are
// tight). Used by tests and by callers that construct Info by hand.
func (in *Info) Validate(rowPtr, colIdx []int) error {
	if len(in.Level) != in.N || len(in.LevelItem) != in.N || len(in.LevelPtr) != in.NLevels+1 {
		return fmt.Errorf("levelset: array sizes inconsistent")
	}
	seen := make([]bool, in.N)
	for l := 0; l < in.NLevels; l++ {
		for k := in.LevelPtr[l]; k < in.LevelPtr[l+1]; k++ {
			i := in.LevelItem[k]
			if i < 0 || i >= in.N || seen[i] {
				return fmt.Errorf("levelset: LevelItem not a permutation at position %d", k)
			}
			seen[i] = true
			if in.Level[i] != l {
				return fmt.Errorf("levelset: component %d in bucket %d but Level=%d", i, l, in.Level[i])
			}
		}
	}
	for i := 0; i < in.N; i++ {
		tight := in.Level[i] == 0
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			j := colIdx[k]
			if j >= i {
				continue
			}
			if in.Level[j] >= in.Level[i] {
				return fmt.Errorf("levelset: dependency %d (level %d) not before %d (level %d)", j, in.Level[j], i, in.Level[i])
			}
			if in.Level[j] == in.Level[i]-1 {
				tight = true
			}
		}
		if !tight {
			return fmt.Errorf("levelset: component %d has no dependency in level %d", i, in.Level[i]-1)
		}
	}
	return nil
}
