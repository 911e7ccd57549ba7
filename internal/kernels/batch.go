package kernels

import (
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Batched (multiple right-hand side) kernel variants. SpTRSV with many
// right-hand sides is the dominant cost of the solve phase of sparse
// direct solvers (§1 of the paper); the follow-up work by Liu et al.
// ("Fast Synchronization-Free Algorithms for Parallel Sparse Triangular
// Solves with Multiple Right-Hand Sides") processes all right-hand sides
// of a component together so the sparsity machinery (dependency tracking,
// level schedule, row traversal) is paid once per component instead of
// once per solve.
//
// Layout: right-hand-side blocks are dense row-major n×k slices — the k
// values of component i occupy W[i*k : (i+1)*k]. Per-component work is
// then contiguous and the inner k-loops vectorise naturally.
//
// The inner k-loops follow the repo's BCE shape (DESIGN.md §6.9): both
// operand windows are re-sliced to the same length expression (w[i*k:]
// re-sliced to len(xj)), so the compiler proves the whole k-loop
// in-bounds from one IsSliceInBounds per nonzero. The k-loops stay
// rolled and written inline at each per-nonzero site: the compiler does
// not inline functions containing loops, and a call per nonzero costs
// more than the loop it wraps, while the k iterations are independent
// element-wise updates the CPU already overlaps without manual
// unrolling. Update order per RHS column is exactly the rolled serial
// order, so batched results carry no reassociation slack.

// TriSerialSolveBatch is TriSerialSolve over an n×k right-hand-side
// block, with the same guard step and poll every serialGuardCols columns.
//
//sptrsv:hotpath
func TriSerialSolveBatch[T sparse.Float](strict *sparse.CSC[T], diag []T, w, x []T, k int, g *exec.Guard) bool {
	n := len(diag)
	colPtr, rowIdx, vals := strict.ColPtr, strict.RowIdx, strict.Val
	next := serialGuardCols
	for j := 0; j < n; j++ {
		if j == next {
			g.Step()
			if g.Tripped() {
				return false
			}
			next += serialGuardCols
		}
		inv := 1 / diag[j]
		xj := x[j*k:][:k]
		wj := w[j*k:][:k]
		scaleInto(xj, wj, inv)
		lo, hi := colPtr[j], colPtr[j+1]
		rows := rowIdx[lo:hi]
		vs := vals[lo:hi][:len(rows)]
		for p := range rows {
			v := vs[p]
			wr := w[rows[p]*k:][:len(xj)]
			for r := range wr {
				wr[r] -= v * xj[r]
			}
		}
	}
	g.Step()
	return !g.Tripped()
}

// SerialSolveCSRBatch is SerialSolveCSR over row-major n×k blocks, with
// the same guard step and poll every serialGuardCols rows. Row i reads
// its k values of b before it writes them in x, and b is never written
// itself: b and x may be the same slice. The diagonal is applied as one
// reciprocal, as in TriSerialSolveBatch.
//
// A row with fewer than four strictly-lower entries, as every row of a
// 5-point grid or a chain is, is computed in one pass over its k values,
// x_i = (b_i − Σ v·x_c)·(1/d_i), with the entries subtracted in order. A
// longer row copies b_i into x_i and reduces it there: every entry
// updates the same k values, so a rolled loop chains each value's
// subtractions through memory. Its entries are taken four at a time
// instead, their products summed in pairs before one subtraction: on a
// 2-vCPU Xeon, at k = 16 on a 10,000-row gen.Layered matrix, the rolled
// loop took 1.05–1.09× the scatter's time and this one 0.60×. The
// reassociated sum stays within the documented ULP tolerance.
//
//sptrsv:hotpath
func SerialSolveCSRBatch[T sparse.Float](l *sparse.CSR[T], b, x []T, k int, g *exec.Guard) bool {
	n := l.Rows
	rowPtr, colIdx, vals := l.RowPtr, l.ColIdx, l.Val
	_ = rowPtr[n]
	next := serialGuardCols
	for i := 0; i < n; i++ {
		if i == next {
			g.Step()
			if g.Tripped() {
				return false
			}
			next += serialGuardCols
		}
		lo, hi := rowPtr[i], rowPtr[i+1]-1 // diagonal is the last entry of a solvable row
		inv := 1 / vals[hi]
		xi := x[i*k:][:k]
		bi := b[i*k:][:len(xi)]
		cols := colIdx[lo:hi]
		vs := vals[lo:hi][:len(cols)]
		switch len(cols) {
		case 0:
			for r := range xi {
				xi[r] = bi[r] * inv
			}
			continue
		case 1:
			v0, x0 := vs[0], x[cols[0]*k:][:len(xi)]
			for r := range xi {
				xi[r] = (bi[r] - v0*x0[r]) * inv
			}
			continue
		case 2:
			v0, x0 := vs[0], x[cols[0]*k:][:len(xi)]
			v1, x1 := vs[1], x[cols[1]*k:][:len(xi)]
			for r := range xi {
				xi[r] = (bi[r] - v0*x0[r] - v1*x1[r]) * inv
			}
			continue
		case 3:
			v0, x0 := vs[0], x[cols[0]*k:][:len(xi)]
			v1, x1 := vs[1], x[cols[1]*k:][:len(xi)]
			v2, x2 := vs[2], x[cols[2]*k:][:len(xi)]
			for r := range xi {
				xi[r] = (bi[r] - v0*x0[r] - v1*x1[r] - v2*x2[r]) * inv
			}
			continue
		}
		copy(xi, bi)
		for len(cols) >= 4 && len(vs) >= 4 {
			v0, v1, v2, v3 := vs[0], vs[1], vs[2], vs[3]
			x0 := x[cols[0]*k:][:len(xi)]
			x1 := x[cols[1]*k:][:len(xi)]
			x2 := x[cols[2]*k:][:len(xi)]
			x3 := x[cols[3]*k:][:len(xi)]
			for r := range xi {
				xi[r] -= (v0*x0[r] + v1*x1[r]) + (v2*x2[r] + v3*x3[r])
			}
			cols = cols[4:]
			vs = vs[4:]
		}
		vs = vs[:len(cols)]
		for p := range cols {
			v := vs[p]
			xj := x[cols[p]*k:][:len(xi)]
			for r := range xi {
				xi[r] -= v * xj[r]
			}
		}
		scaleInto(xi, xi, inv)
	}
	g.Step()
	return !g.Tripped()
}

// scaleInto computes dst[r] = src[r]·inv over one RHS window with the
// source re-tied to the destination length, so the body carries no
// bounds checks. Called once per component, not per nonzero, so the
// call overhead is off the per-nnz path.
//
//sptrsv:hotpath
func scaleInto[T sparse.Float](dst, src []T, inv T) {
	src = src[:len(dst)]
	for r := range dst {
		dst[r] = src[r] * inv
	}
}

// TriDiagOnlySolveBatch is the completely-parallel kernel over an n×k
// right-hand-side block.
//
//sptrsv:hotpath
func TriDiagOnlySolveBatch[T sparse.Float](p exec.Launcher, diag []T, w, x []T, k int) {
	p.ParallelFor(len(diag), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			inv := 1 / diag[i]
			scaleInto(x[i*k:][:k], w[i*k:][:k], inv)
		}
	})
}

// TriLevelSetSolveBatch runs the level-set kernel over an n×k block:
// one launch per level, scatter updates with per-element atomic adds. The
// guard is polled per level, as in TriLevelSetSolve.
//
//sptrsv:hotpath
func TriLevelSetSolveBatch[T sparse.Float](p exec.Launcher, strict *sparse.CSC[T], diag []T, info *levelset.Info, w, x []T, k int, g *exec.Guard) bool {
	colPtr, rowIdx, vals := strict.ColPtr, strict.RowIdx, strict.Val
	for l := 0; l < info.NLevels; l++ {
		if g.Tripped() {
			return false
		}
		lo, hi := info.LevelPtr[l], info.LevelPtr[l+1]
		items := info.LevelItem[lo:hi]
		p.ParallelFor(len(items), 0, func(a, b int) {
			its := items[a:b]
			for t := range its {
				j := its[t]
				inv := 1 / diag[j]
				xj := x[j*k:][:k]
				scaleInto(xj, w[j*k:][:k], inv)
				klo, khi := colPtr[j], colPtr[j+1]
				rows := rowIdx[klo:khi]
				vs := vals[klo:khi][:len(rows)]
				for kk := range rows {
					v := vs[kk]
					wr := w[rows[kk]*k:][:len(xj)]
					for r := range wr {
						exec.AtomicAddFloat(&wr[r], -v*xj[r])
					}
				}
			}
		})
		g.Step()
	}
	return !g.Tripped()
}

// TriSyncFreeSolveBatch runs the sync-free kernel over an n×k block. The
// in-degree of a component is decremented once per dependency after all k
// of its updates have been published, preserving the release/acquire
// pairing of the single-vector kernel. The guard is polled per component,
// with the stall and panic handling of TriSyncFreeSolve.
//
//sptrsv:hotpath
func TriSyncFreeSolveBatch[T sparse.Float](p exec.Launcher, state *SyncFreeState, strict *sparse.CSC[T], diag []T, w, x []T, k int, g *exec.Guard) bool {
	n := len(diag)
	if n == 0 {
		return true
	}
	state.reset()
	colPtr, rowIdx, vals := strict.ColPtr, strict.RowIdx, strict.Val
	indeg := state.indeg
	var next atomic.Int64
	p.Run(func(worker int) {
		defer func() {
			if r := recover(); r != nil {
				g.Trip(fmt.Errorf("kernels: sync-free worker %d panicked: %v", worker, r))
				panic(r)
			}
		}()
		for {
			if g.Tripped() {
				return
			}
			j := int(next.Add(1)) - 1
			if j >= n {
				return
			}
			if !exec.SpinUntilZeroGuarded(&indeg[j].V, g) {
				g.ReportStall(j, indeg[j].V.Load())
				return
			}
			inv := 1 / diag[j]
			xj := x[j*k:][:k]
			scaleInto(xj, w[j*k:][:k], inv)
			klo, khi := colPtr[j], colPtr[j+1]
			rows := rowIdx[klo:khi]
			vs := vals[klo:khi][:len(rows)]
			for kk := range rows {
				v := vs[kk]
				row := rows[kk]
				wr := w[row*k:][:len(xj)]
				for r := range wr {
					exec.AtomicAddFloat(&wr[r], -v*xj[r])
				}
				indeg[row].V.Add(-1)
			}
			g.Step()
		}
	})
	return !g.Tripped()
}

// TriCuSparseLikeSolveBatch runs the merged level-set kernel over an n×k
// block in gather form (no atomics). The guard is polled per chunk, as in
// TriCuSparseLikeSolve.
//
//sptrsv:hotpath
func TriCuSparseLikeSolveBatch[T sparse.Float](p exec.Launcher, sched *MergedSchedule, strictCSR *sparse.CSR[T], diag []T, w, x []T, k int, g *exec.Guard) bool {
	rowPtr, colIdx, vals := strictCSR.RowPtr, strictCSR.ColIdx, strictCSR.Val
	//lint:ignore escapecheck one row closure per solve, shared by every chunk launch below
	row := func(i int, sum []T) {
		copy(sum, w[i*k:][:k])
		klo, khi := rowPtr[i], rowPtr[i+1]
		cols := colIdx[klo:khi]
		vs := vals[klo:khi][:len(cols)]
		for kk := range cols {
			v := vs[kk]
			xc := x[cols[kk]*k:][:len(sum)]
			for r := range xc {
				sum[r] -= v * xc[r]
			}
		}
		inv := 1 / diag[i]
		scaleInto(x[i*k:][:k], sum, inv)
	}
	chunkPtr, serial, order := sched.chunkPtr, sched.serial, sched.items
	for c := range serial {
		if g.Tripped() {
			return false
		}
		items := order[chunkPtr[c]:chunkPtr[c+1]]
		if serial[c] {
			p.ParallelFor(1, 1, func(_, _ int) {
				//lint:ignore escapecheck per-launch RHS accumulator scratch
				sum := make([]T, k)
				for t := range items {
					row(items[t], sum)
				}
			})
		} else {
			p.ParallelFor(len(items), 0, func(a, b int) {
				//lint:ignore escapecheck per-launch RHS accumulator scratch
				sum := make([]T, k)
				its := items[a:b]
				for t := range its {
					row(its[t], sum)
				}
			})
		}
		g.Step()
	}
	return !g.Tripped()
}

// SpMVScalarCSRSubBatch computes W -= A·X over n×k blocks, one worker
// item per row.
//
//sptrsv:hotpath
func SpMVScalarCSRSubBatch[T sparse.Float](p exec.Launcher, a *sparse.CSR[T], x, w []T, k int) {
	rowPtr, colIdx, vals := a.RowPtr, a.ColIdx, a.Val
	p.ParallelFor(a.Rows, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rlo, rhi := rowPtr[i], rowPtr[i+1]
			if rlo == rhi {
				continue
			}
			wi := w[i*k:][:k]
			cols := colIdx[rlo:rhi]
			vs := vals[rlo:rhi][:len(cols)]
			for kk := range cols {
				v := vs[kk]
				xc := x[cols[kk]*k:][:len(wi)]
				for r := range xc {
					wi[r] -= v * xc[r]
				}
			}
		}
	})
}

// SpMVVectorCSRSubBatch computes W -= A·X with nnz-balanced chunks;
// boundary rows combine with per-element atomic adds.
//
//sptrsv:hotpath
func SpMVVectorCSRSubBatch[T sparse.Float](p exec.Launcher, a *sparse.CSR[T], x, w []T, k int) {
	nnz := a.NNZ()
	if nnz == 0 {
		return
	}
	grain := nnz / (p.Workers() * 8)
	if grain < 1 {
		grain = 1
	}
	rowPtr, colIdx, vals := a.RowPtr, a.ColIdx, a.Val
	rows := a.Rows
	p.ParallelFor(nnz, grain, func(lo, hi int) {
		//lint:ignore escapecheck per-launch RHS accumulator scratch
		sum := make([]T, k)
		i := sort.SearchInts(rowPtr, lo+1) - 1
		for i < rows && rowPtr[i] < hi {
			klo, khi := rowPtr[i], rowPtr[i+1]
			cut := klo < lo || khi > hi
			if klo < lo {
				klo = lo
			}
			if khi > hi {
				khi = hi
			}
			for r := range sum {
				sum[r] = 0
			}
			cols := colIdx[klo:khi]
			vs := vals[klo:khi][:len(cols)]
			for kk := range cols {
				v := vs[kk]
				xc := x[cols[kk]*k:][:len(sum)]
				for r := range xc {
					sum[r] += v * xc[r]
				}
			}
			wi := w[i*k:][:len(sum)]
			if cut {
				for r := range wi {
					if sum[r] != 0 {
						exec.AtomicAddFloat(&wi[r], -sum[r])
					}
				}
			} else {
				for r := range wi {
					wi[r] -= sum[r]
				}
			}
			i++
		}
	})
}

// SpMVScalarDCSRSubBatch is SpMVScalarCSRSubBatch over stored rows only.
//
//sptrsv:hotpath
func SpMVScalarDCSRSubBatch[T sparse.Float](p exec.Launcher, a *sparse.DCSR[T], x, w []T, k int) {
	rowPtr, rowIdx, colIdx, vals := a.RowPtr, a.RowIdx, a.ColIdx, a.Val
	p.ParallelFor(a.StoredRows(), 0, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			wi := w[rowIdx[s]*k:][:k]
			rlo, rhi := rowPtr[s], rowPtr[s+1]
			cols := colIdx[rlo:rhi]
			vs := vals[rlo:rhi][:len(cols)]
			for kk := range cols {
				v := vs[kk]
				xc := x[cols[kk]*k:][:len(wi)]
				for r := range xc {
					wi[r] -= v * xc[r]
				}
			}
		}
	})
}

// SpMVVectorDCSRSubBatch is SpMVVectorCSRSubBatch over stored rows only.
//
//sptrsv:hotpath
func SpMVVectorDCSRSubBatch[T sparse.Float](p exec.Launcher, a *sparse.DCSR[T], x, w []T, k int) {
	nnz := a.NNZ()
	if nnz == 0 {
		return
	}
	grain := nnz / (p.Workers() * 8)
	if grain < 1 {
		grain = 1
	}
	rowPtr, rowIdx, colIdx, vals := a.RowPtr, a.RowIdx, a.ColIdx, a.Val
	stored := a.StoredRows()
	p.ParallelFor(nnz, grain, func(lo, hi int) {
		//lint:ignore escapecheck per-launch RHS accumulator scratch
		sum := make([]T, k)
		s := sort.SearchInts(rowPtr, lo+1) - 1
		for s < stored && rowPtr[s] < hi {
			klo, khi := rowPtr[s], rowPtr[s+1]
			cut := klo < lo || khi > hi
			if klo < lo {
				klo = lo
			}
			if khi > hi {
				khi = hi
			}
			for r := range sum {
				sum[r] = 0
			}
			cols := colIdx[klo:khi]
			vs := vals[klo:khi][:len(cols)]
			for kk := range cols {
				v := vs[kk]
				xc := x[cols[kk]*k:][:len(sum)]
				for r := range xc {
					sum[r] += v * xc[r]
				}
			}
			wi := w[rowIdx[s]*k:][:len(sum)]
			if cut {
				for r := range wi {
					if sum[r] != 0 {
						exec.AtomicAddFloat(&wi[r], -sum[r])
					}
				}
			} else {
				for r := range wi {
					wi[r] -= sum[r]
				}
			}
			s++
		}
	})
}

// SpMVSerialSubBatch is the serial reference for the batched SpMV update.
//
//sptrsv:hotpath
func SpMVSerialSubBatch[T sparse.Float](a *sparse.CSR[T], x, w []T, k int) {
	rowPtr, colIdx, vals := a.RowPtr, a.ColIdx, a.Val
	for i := 0; i < a.Rows; i++ {
		wi := w[i*k:][:k]
		rlo, rhi := rowPtr[i], rowPtr[i+1]
		cols := colIdx[rlo:rhi]
		vs := vals[rlo:rhi][:len(cols)]
		for kk := range cols {
			v := vs[kk]
			xc := x[cols[kk]*k:][:len(wi)]
			for r := range xc {
				wi[r] -= v * xc[r]
			}
		}
	}
}

// RunSpMVBatch dispatches the batched block update W -= A·X to the named
// kernel (the batch counterpart of RunSpMV).
//
//sptrsv:hotpath
func RunSpMVBatch[T sparse.Float](p exec.Launcher, kn SpMVKernel, csr *sparse.CSR[T], dcsr *sparse.DCSR[T], x, w []T, k int) {
	switch kn {
	case SpMVScalarCSR:
		SpMVScalarCSRSubBatch(p, csr, x, w, k)
	case SpMVVectorCSR:
		SpMVVectorCSRSubBatch(p, csr, x, w, k)
	case SpMVScalarDCSR:
		SpMVScalarDCSRSubBatch(p, dcsr, x, w, k)
	case SpMVVectorDCSR:
		SpMVVectorDCSRSubBatch(p, dcsr, x, w, k)
	case SpMVSerial:
		SpMVSerialSubBatch(csr, x, w, k)
	default:
		panic("kernels: RunSpMVBatch got unresolved kernel")
	}
}
