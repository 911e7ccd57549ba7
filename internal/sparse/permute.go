package sparse

import (
	"fmt"
	"sort"
)

// CheckPerm verifies that perm is a permutation of 0..n-1.
func CheckPerm(n int, perm []int) error {
	return NewPermMarks(n).Check(n, perm)
}

// PermMarks is the one bit per element with which Check tests a
// permutation, kept so that a caller checking several of them, as the
// plan loader checks a plan's permutation and every level set and
// schedule, allocates its marks once.
type PermMarks struct {
	bits []uint64
}

// NewPermMarks returns marks that check permutations of up to n elements
// without growing.
func NewPermMarks(n int) *PermMarks {
	return &PermMarks{bits: make([]uint64, (n+63)/64)}
}

// Check verifies that perm is a permutation of 0..n-1, as CheckPerm
// does, growing the marks if n needs more bits.
func (m *PermMarks) Check(n int, perm []int) error {
	if len(perm) != n {
		return fmt.Errorf("%w: permutation length %d want %d", ErrShape, len(perm), n)
	}
	words := (n + 63) / 64
	if len(m.bits) < words {
		m.bits = make([]uint64, words)
	}
	seen := m.bits[:words]
	clear(seen)
	for _, p := range perm {
		if p < 0 || p >= n {
			return fmt.Errorf("%w: not a permutation of 0..%d", ErrShape, n-1)
		}
		w, bit := p>>6, uint64(1)<<(p&63)
		if seen[w]&bit != 0 {
			return fmt.Errorf("%w: not a permutation of 0..%d", ErrShape, n-1)
		}
		seen[w] |= bit
	}
	return nil
}

// InvertPerm returns the inverse permutation: out[perm[i]] = i.
func InvertPerm(perm []int) []int {
	inv := make([]int, len(perm))
	for i, p := range perm {
		inv[p] = i
	}
	return inv
}

// ComposePerm returns the permutation applying first then second:
// out[i] = second[first[i]].
func ComposePerm(first, second []int) []int {
	out := make([]int, len(first))
	for i, p := range first {
		out[i] = second[p]
	}
	return out
}

// PermuteSym applies the symmetric permutation A' = P·A·Pᵀ to a square CSR
// matrix, where newIdx[old] gives the new position of component old. Entry
// (i,j) of A lands at (newIdx[i], newIdx[j]) in A'. Symmetric permutation
// preserves triangularity whenever newIdx is a topological order of the
// dependency graph — the level-set order used by the improved recursive
// structure is one such order.
func PermuteSym[T Float](m *CSR[T], newIdx []int) (*CSR[T], error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("%w: %dx%d not square", ErrShape, m.Rows, m.Cols)
	}
	if err := CheckPerm(m.Rows, newIdx); err != nil {
		return nil, err
	}
	n := m.Rows
	old := InvertPerm(newIdx) // old[i'] = original index of new row i'
	rowPtr := make([]int, n+1)
	for ni := 0; ni < n; ni++ {
		oi := old[ni]
		rowPtr[ni+1] = rowPtr[ni] + (m.RowPtr[oi+1] - m.RowPtr[oi])
	}
	colIdx := make([]int, m.NNZ())
	val := make([]T, m.NNZ())
	for ni := 0; ni < n; ni++ {
		oi := old[ni]
		w := rowPtr[ni]
		for k := m.RowPtr[oi]; k < m.RowPtr[oi+1]; k++ {
			colIdx[w] = newIdx[m.ColIdx[k]]
			val[w] = m.Val[k]
			w++
		}
		insertionSortRow(colIdx[rowPtr[ni]:rowPtr[ni+1]], val[rowPtr[ni]:rowPtr[ni+1]])
	}
	return &CSR[T]{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}, nil
}

// insertionSortRow co-sorts a row's column indices and values. Typical rows
// are short, where insertion sort wins; long (power-law) rows fall back to
// the generic sort to stay O(k log k).
func insertionSortRow[T Float](cols []int, vals []T) {
	if len(cols) > 32 {
		sort.Sort(&rowSorter[T]{cols, vals})
		return
	}
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1] = cols[j]
			vals[j+1] = vals[j]
			j--
		}
		cols[j+1] = c
		vals[j+1] = v
	}
}

type rowSorter[T Float] struct {
	cols []int
	vals []T
}

func (s *rowSorter[T]) Len() int           { return len(s.cols) }
func (s *rowSorter[T]) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *rowSorter[T]) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// PermuteVec gathers src into a new vector under newIdx: out[newIdx[i]] =
// src[i]. This is how the right-hand side b follows the matrix permutation.
func PermuteVec[T Float](src []T, newIdx []int) []T {
	out := make([]T, len(src))
	for i, p := range newIdx {
		out[p] = src[i]
	}
	return out
}

// PermuteVecInto is PermuteVec writing into dst, avoiding an allocation.
// The gather side is re-sliced to len(newIdx) so only the data-dependent
// scatter index keeps a bounds check, and the loop runs 4-way unrolled
// (DESIGN.md §6.9); permutation targets are distinct, so the unroll
// cannot reorder conflicting writes.
//
//sptrsv:hotpath
func PermuteVecInto[T Float](dst, src []T, newIdx []int) {
	idx := newIdx
	src = src[:len(idx)]
	for len(idx) >= 4 && len(src) >= 4 {
		p0, p1, p2, p3 := idx[0], idx[1], idx[2], idx[3]
		dst[p0] = src[0]
		dst[p1] = src[1]
		dst[p2] = src[2]
		dst[p3] = src[3]
		idx = idx[4:]
		src = src[4:]
	}
	src = src[:len(idx)]
	for i := range idx {
		dst[idx[i]] = src[i]
	}
}

// UnpermuteVecInto undoes PermuteVecInto: dst[i] = src[newIdx[i]].
//
//sptrsv:hotpath
func UnpermuteVecInto[T Float](dst, src []T, newIdx []int) {
	idx := newIdx
	dst = dst[:len(idx)]
	for len(idx) >= 4 && len(dst) >= 4 {
		p0, p1, p2, p3 := idx[0], idx[1], idx[2], idx[3]
		dst[0] = src[p0]
		dst[1] = src[p1]
		dst[2] = src[p2]
		dst[3] = src[p3]
		idx = idx[4:]
		dst = dst[4:]
	}
	dst = dst[:len(idx)]
	for i := range idx {
		dst[i] = src[idx[i]]
	}
}
