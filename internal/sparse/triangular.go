package sparse

import (
	"errors"
	"fmt"
	"sort"
	"unsafe"
)

// ErrSingular reports a triangular matrix with a missing diagonal entry,
// or one that UsableDiagonal refuses, which makes the solve undefined.
var ErrSingular = errors.New("sparse: singular triangular matrix (missing, zero or out-of-range diagonal)")

// UsableDiagonal reports whether d can be the diagonal entry of a row of
// a triangular solve. Every kernel applies the diagonal as its
// reciprocal, x_i = (b_i − Σ v·x_c)·(1/d_i), so d and 1/d must both be
// normal numbers of T: |d| in [2⁻¹⁰²², 2¹⁰²²] for float64 and
// [2⁻¹²⁶, 2¹²⁶] for float32. Zero, subnormal, NaN and infinite values
// fail, and so do values whose reciprocal would overflow or fall below
// the normal range. It compares and does not divide, so a check of
// every row at analysis costs no divide. The element's size, not a type
// assertion, picks the range, so a named type over float32 gets
// float32's.
func UsableDiagonal[T Float](d T) bool {
	a := float64(d)
	if a < 0 {
		a = -a
	}
	if unsafe.Sizeof(d) == 4 {
		return 0x1p-126 <= a && a <= 0x1p126
	}
	return 0x1p-1022 <= a && a <= 0x1p1022
}

// ErrNotTriangular reports a matrix that was expected to be triangular.
var ErrNotTriangular = errors.New("sparse: matrix is not triangular")

// LowerTriangle extracts the lower-triangular part (including the diagonal)
// of a square CSR matrix. A row whose diagonal entry is missing or one
// UsableDiagonal refuses is an ErrSingular error, or, if insertUnitDiag is
// true, receives a unit diagonal — the convention the paper uses to make
// every SuiteSparse test matrix solvable ("plus a diagonal to avoid
// singular"), so the result always passes CheckLowerSolvable.
func LowerTriangle[T Float](m *CSR[T], insertUnitDiag bool) (*CSR[T], error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("%w: %dx%d not square", ErrShape, m.Rows, m.Cols)
	}
	n := m.Rows
	rowPtr := make([]int, n+1)
	colIdx := make([]int, 0, m.NNZ())
	val := make([]T, 0, m.NNZ())
	for i := 0; i < n; i++ {
		haveDiag := false
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.ColIdx[k]
			if c > i {
				break // columns ascend; rest of row is strictly upper
			}
			v := m.Val[k]
			if c == i {
				if !UsableDiagonal(v) {
					if !insertUnitDiag {
						return nil, fmt.Errorf("%w: row %d", ErrSingular, i)
					}
					v = 1
				}
				haveDiag = true
			}
			colIdx = append(colIdx, c)
			val = append(val, v)
		}
		if !haveDiag {
			if !insertUnitDiag {
				return nil, fmt.Errorf("%w: row %d", ErrSingular, i)
			}
			colIdx = append(colIdx, i)
			val = append(val, 1)
		}
		rowPtr[i+1] = len(val)
	}
	return &CSR[T]{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}, nil
}

// UpperTriangle extracts the upper-triangular part (including the diagonal)
// of a square CSR matrix, with the same diagonal policy as LowerTriangle.
func UpperTriangle[T Float](m *CSR[T], insertUnitDiag bool) (*CSR[T], error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("%w: %dx%d not square", ErrShape, m.Rows, m.Cols)
	}
	n := m.Rows
	rowPtr := make([]int, n+1)
	colIdx := make([]int, 0, m.NNZ())
	val := make([]T, 0, m.NNZ())
	for i := 0; i < n; i++ {
		haveDiag := false
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		seg := m.ColIdx[lo:hi]
		start := lo + sort.SearchInts(seg, i)
		if start < hi && m.ColIdx[start] == i {
			v := m.Val[start]
			if !UsableDiagonal(v) {
				if !insertUnitDiag {
					return nil, fmt.Errorf("%w: row %d", ErrSingular, i)
				}
				v = 1
			}
			colIdx = append(colIdx, i)
			val = append(val, v)
			haveDiag = true
			start++
		}
		if !haveDiag {
			if !insertUnitDiag {
				return nil, fmt.Errorf("%w: row %d", ErrSingular, i)
			}
			colIdx = append(colIdx, i)
			val = append(val, 1)
		}
		for k := start; k < hi; k++ {
			colIdx = append(colIdx, m.ColIdx[k])
			val = append(val, m.Val[k])
		}
		rowPtr[i+1] = len(val)
	}
	return &CSR[T]{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: colIdx, Val: val}, nil
}

// IsLowerTriangular reports whether every stored entry satisfies col <= row.
func (m *CSR[T]) IsLowerTriangular() bool {
	for i := 0; i < m.Rows; i++ {
		hi := m.RowPtr[i+1]
		if hi > m.RowPtr[i] && m.ColIdx[hi-1] > i {
			return false
		}
	}
	return true
}

// IsUpperTriangular reports whether every stored entry satisfies col >= row.
func (m *CSR[T]) IsUpperTriangular() bool {
	for i := 0; i < m.Rows; i++ {
		lo := m.RowPtr[i]
		if lo < m.RowPtr[i+1] && m.ColIdx[lo] < i {
			return false
		}
	}
	return true
}

// CheckLowerSolvable verifies that the matrix is square, lower triangular
// and has a full diagonal that UsableDiagonal accepts, i.e. that Lx=b is
// well defined and every kernel's reciprocal of the diagonal is a normal
// number. It checks the last entry of each row only; off-diagonal values
// are left to Validate.
func CheckLowerSolvable[T Float](m *CSR[T]) error {
	if m.Rows != m.Cols {
		return fmt.Errorf("%w: %dx%d not square", ErrShape, m.Rows, m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if hi == lo {
			return fmt.Errorf("%w: row %d empty", ErrSingular, i)
		}
		if m.ColIdx[hi-1] > i {
			return fmt.Errorf("%w: row %d has entry in column %d", ErrNotTriangular, i, m.ColIdx[hi-1])
		}
		if m.ColIdx[hi-1] != i {
			return fmt.Errorf("%w: row %d has no diagonal", ErrSingular, i)
		}
		if d := m.Val[hi-1]; !UsableDiagonal(d) {
			return fmt.Errorf("%w: row %d diagonal %g", ErrSingular, i, d)
		}
	}
	return nil
}

// SubCSR extracts the sub-matrix with global rows [r0,r1) and columns
// [c0,c1) as a new CSR matrix with local (shifted) indices.
func SubCSR[T Float](m *CSR[T], r0, r1, c0, c1 int) *CSR[T] {
	if r0 < 0 || r1 > m.Rows || c0 < 0 || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("sparse: SubCSR range [%d,%d)x[%d,%d) invalid for %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	rowPtr, colIdx, val := subCompressed(m.RowPtr, m.ColIdx, m.Val, r0, r1, c0, c1)
	return &CSR[T]{Rows: r1 - r0, Cols: c1 - c0, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// subCompressed extracts major lines [m0,m1) and minor indices [n0,n1) of
// a compressed matrix (CSR rows and columns, or CSC columns and rows),
// shifting both to local numbering. It counts before it copies, so the
// result is allocated once at its exact size: analysis extracts every
// range of the partition tree, and growing by append made the garbage a
// multiple of the matrix.
func subCompressed[T Float](ptr, idx []int, val []T, m0, m1, n0, n1 int) ([]int, []int, []T) {
	outPtr := make([]int, m1-m0+1)
	for i := m0; i < m1; i++ {
		seg := idx[ptr[i]:ptr[i+1]]
		outPtr[i-m0+1] = outPtr[i-m0] + sort.SearchInts(seg, n1) - sort.SearchInts(seg, n0)
	}
	var outIdx []int
	var outVal []T
	if nnz := outPtr[m1-m0]; nnz > 0 {
		outIdx, outVal = make([]int, nnz), make([]T, nnz)
	}
	for i := m0; i < m1; i++ {
		a := ptr[i] + sort.SearchInts(idx[ptr[i]:ptr[i+1]], n0)
		d0, d1 := outPtr[i-m0], outPtr[i-m0+1]
		for k := d0; k < d1; k++ {
			outIdx[k] = idx[a+k-d0] - n0
		}
		copy(outVal[d0:d1], val[a:])
	}
	return outPtr, outIdx, outVal
}

// SplitDiagCSC separates a square lower-triangular CSC matrix into its
// strictly-lower part and a dense diagonal vector, the storage convention
// the paper uses for triangular sub-blocks ("the diagonal is saved
// separately"). It returns ErrSingular if any diagonal entry is missing or
// UsableDiagonal refuses it, and ErrNotTriangular for an entry above the
// diagonal.
func SplitDiagCSC[T Float](m *CSC[T]) (strict *CSC[T], diag []T, err error) {
	if m.Rows != m.Cols {
		return nil, nil, fmt.Errorf("%w: %dx%d not square", ErrShape, m.Rows, m.Cols)
	}
	return SplitDiagBlock(m, 0, m.Rows)
}

// SplitDiagBlock is SplitDiagCSC of the diagonal block [lo,hi)×[lo,hi) of
// m, in the block's local numbering, taken in one pass without extracting
// the block first: it finds each column's in-range entries below the
// diagonal, allocates once, and copies them. Column numbers in errors are
// local.
func SplitDiagBlock[T Float](m *CSC[T], lo, hi int) (strict *CSC[T], diag []T, err error) {
	if lo < 0 || hi > m.Rows || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("sparse: SplitDiagBlock range [%d,%d) invalid for %dx%d", lo, hi, m.Rows, m.Cols))
	}
	n := hi - lo
	diag = make([]T, n)
	colPtr := make([]int, n+1)
	below := make([]int, n) // where each column's entries below the diagonal start in m
	for j := lo; j < hi; j++ {
		p0 := m.ColPtr[j]
		seg := m.RowIdx[p0:m.ColPtr[j+1]]
		a, b := sort.SearchInts(seg, lo), sort.SearchInts(seg, hi)
		switch {
		case a < b && seg[a] < j:
			return nil, nil, fmt.Errorf("%w: column %d has entry above diagonal", ErrNotTriangular, j-lo)
		case a == b || seg[a] != j || !UsableDiagonal(m.Val[p0+a]):
			return nil, nil, fmt.Errorf("%w: column %d", ErrSingular, j-lo)
		}
		diag[j-lo] = m.Val[p0+a]
		below[j-lo] = p0 + a + 1
		colPtr[j-lo+1] = colPtr[j-lo] + b - a - 1
	}
	rowIdx, val := make([]int, colPtr[n]), make([]T, colPtr[n])
	for j := 0; j < n; j++ {
		p, d0, d1 := below[j], colPtr[j], colPtr[j+1]
		for k := d0; k < d1; k++ {
			rowIdx[k] = m.RowIdx[p+k-d0] - lo
		}
		copy(val[d0:d1], m.Val[p:])
	}
	return &CSC[T]{Rows: n, Cols: n, ColPtr: colPtr, RowIdx: rowIdx, Val: val}, diag, nil
}
