package block

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/faultinject"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
	"github.com/sss-lab/blocksptrsv/internal/trace"
)

// Traffic is the dense-equivalent data movement of one solve, the metric
// of the paper's Tables 1 and 2: BUpdates counts items written to the
// evolving right-hand side (each triangular row once, plus each square
// block's row extent), XLoads counts items of the solution vector read by
// square blocks (each square's column extent). Both are static properties
// of the partition, computed at preprocessing time.
type Traffic struct {
	BUpdates int64
	XLoads   int64
}

// SolveStats accumulates instrumented per-phase timings (Options.
// Instrument), the measurement behind Figure 4.
type SolveStats struct {
	TriTime   time.Duration
	SpMVTime  time.Duration
	TriCalls  int64
	SpMVCalls int64
	Solves    int64
	// Refinements and Fallbacks count SolveContext recoveries: solves
	// that needed an iterative-refinement step, and solves that fell all
	// the way back to the serial reference (see Options.VerifyResidual).
	Refinements int64
	Fallbacks   int64
	// LastTraceID is the StepRecorder solve id of the most recent solve on
	// this stats stream (0 when no recorder is attached). A guarded solve's
	// refinement step records under the id of the attempt it corrects.
	// Request-scoped observability (the daemon's span tracing) reads it
	// after a solve to link a request span to the per-step trace records.
	LastTraceID int64
}

// triBlock is a preprocessed triangular diagonal block: strictly-lower
// storage plus separate diagonal (§3.3), with the auxiliary structures of
// its selected kernel. A serial leaf in gather form stores instead its
// lower CSR with the diagonal last in each row, and nothing else. A
// level-ordered whole leaf (ord non-nil) stores L's rows in level order,
// with L's column indices, as lower, and L itself as inOrder.
type triBlock[T sparse.Float] struct {
	lo, hi    int
	diag      []T
	strictCSC *sparse.CSC[T]
	strictCSR *sparse.CSR[T]          // cusparse-like only
	lower     *sparse.CSR[T]          // serial gather form only; diag, strictCSC and info are nil
	ord       []int                   // level-ordered whole leaf only: L's row of each row of lower
	inOrder   *sparse.CSR[T]          // level-ordered whole leaf only: L, which batch solves read
	info      *levelset.Info          // level-set only
	sched     *kernels.MergedSchedule // cusparse-like only
	state     *kernels.SyncFreeState  // sync-free only
	kernel    kernels.TriKernel
	feats     adapt.TriFeatures
}

// nnz counts the block's stored entries, its diagonal included.
func (tb *triBlock[T]) nnz() int {
	if tb.lower != nil {
		return tb.lower.NNZ()
	}
	return tb.strictCSC.NNZ() + len(tb.diag)
}

// sqBlock is a preprocessed off-diagonal block: CSR or DCSR (exactly one
// is non-nil, per the selected kernel's needs).
type sqBlock[T sparse.Float] struct {
	spec   segSpec
	csr    *sparse.CSR[T]
	dcsr   *sparse.DCSR[T]
	kernel kernels.SpMVKernel
	feats  adapt.SpMVFeatures
}

type planStep struct {
	kind segKind
	idx  int
}

// Solver is a preprocessed block SpTRSV. Construct with Preprocess; Solve
// may be called any number of times but not concurrently (its solves run
// on one Session the Solver owns). It implements the kernels.Solver
// interface.
type Solver[T sparse.Float] struct {
	n       int
	opts    Options
	pool    exec.Launcher
	perm    []int          // newIdx[original] = permuted position; nil without reorder
	orig    *sparse.CSR[T] // caller's matrix, for residual checks and fallback; nil when deserialised
	inPlace bool           // the plan is one gather leaf on the caller's numbering: solves read b directly
	tris    []triBlock[T]
	sqs     []sqBlock[T]
	steps   []planStep
	own     *Session[T] // scratch and stats of the Solver's own solves
	traffic Traffic
	sqNNZ   int

	// Observability state. plan holds each step's spec, with the
	// recursion depth and stop rule Explain renders (nil on deserialised
	// solvers); meta
	// and labels exist only while a StepRecorder is attached (SetTrace)
	// — meta is the per-step geometry the recorder copies, labels the
	// prebuilt pprof label sets applied around each step so CPU profiles
	// attribute caller-side samples to block indices.
	plan   []segSpec
	meta   []trace.StepMeta
	labels []context.Context
}

// Preprocess builds a block solver for the lower-triangular system L
// according to opts. It performs the full pipeline of §3.3: optional
// recursive level-set reordering, partition into triangular and square
// blocks stored in execution order, per-block format choice (CSC triangles
// with separated diagonals, CSR/DCSR squares) and kernel selection. With
// the serial floor on (the thresholds choose the kernels and
// TriParallelMinWork > 0), the recursion stops at ranges Algorithm 7
// sends to the serial or completely-parallel kernel, squares without
// entries leave the plan, and each such serial leaf runs as a CSR gather
// (kernels.SerialSolveCSR) instead of the CSC scatter. When such a leaf
// is the whole matrix, solves run on the caller's b and x with no copy,
// and the matrix is not permuted: unpermuted, the leaf is L itself;
// under a level order, single-RHS solves walk a copy of L's rows in that
// order, with L's column indices (kernels.SerialSolveCSROrdered), and
// batch solves walk L. Forced and floor-0 plans keep the scatter.
//
// The solver keeps a reference to L: for residual verification and the
// serial fallback, and, when the plan is one whole gather leaf, as that
// leaf's storage. Callers must not modify L while the solver is in use;
// new values on the same pattern go through RefreshValues.
func Preprocess[T sparse.Float](l *sparse.CSR[T], opts Options) (*Solver[T], error) {
	o := opts.normalised()
	if o.Validate {
		if err := sparse.ValidateLower(l); err != nil {
			return nil, err
		}
	}
	if err := sparse.CheckLowerSolvable(l); err != nil {
		return nil, err
	}
	mAnalyzes.Inc()
	cur, perm, tree, err := walkTree(l, o)
	if err != nil {
		return nil, err
	}
	// A whole serial leaf under a level order: walkTree left l unpermuted.
	ordered := perm != nil && wholeSerialLeaf(tree)
	n := l.Rows
	s := &Solver[T]{n: n, opts: o, pool: o.Pool, orig: l, perm: perm}
	plan := planOf(n, o, tree)
	if err := planChecks(n, plan); err != nil {
		return nil, err
	}

	// The CSC is built only if some triangle needs it: a plan of gather
	// leaves reads the plan-order CSR alone.
	var cscAll *sparse.CSC[T]
	s.traffic.BUpdates = int64(n)
	s.plan = make([]segSpec, 0, len(plan))
	dropEmpty := o.floorOn()
	for _, spec := range plan {
		switch spec.kind {
		case triSeg:
			var tb triBlock[T]
			switch {
			case ordered:
				tb, err = buildOrderedLeaf(l, perm, spec)
			case spec.stop == stopSerial:
				tb, err = buildGatherLeaf(cur, spec)
			default:
				if cscAll == nil {
					cscAll = cur.ToCSC()
				}
				tb, err = buildTriBlock[T](cscAll, spec, o)
			}
			if err != nil {
				return nil, err
			}
			s.steps = append(s.steps, planStep{triSeg, len(s.tris)})
			s.tris = append(s.tris, tb)
		case sqSeg:
			sb := buildSqBlock[T](cur, spec, o)
			if dropEmpty && sb.feats.NNZ == 0 {
				continue
			}
			s.traffic.BUpdates += int64(spec.rowHi - spec.rowLo)
			s.traffic.XLoads += int64(spec.colHi - spec.colLo)
			s.sqNNZ += sb.feats.NNZ
			s.steps = append(s.steps, planStep{sqSeg, len(s.sqs)})
			s.sqs = append(s.sqs, sb)
		}
		s.plan = append(s.plan, spec)
	}
	s.inPlace = s.onlyGatherLeaf()
	s.own = s.newSession()
	if o.Trace != nil {
		s.SetTrace(o.Trace)
	}
	return s, nil
}

// RefreshValues re-derives every numeric array of the plan (block
// values, diagonals, alternate-format copies, gather leaves) from the
// caller's matrix, keeping all symbolic structure — permutation,
// partition, level sets, schedules, kernel choices and serial forms —
// intact: new numbers on the same sparsity pattern, such as a refactored
// ILU preconditioner, cost an O(nnz) copy and no analysis. It works on a
// loaded solver too. The matrix must have exactly the structure the plan
// was built from; a mismatch returns an error wrapping ErrSerialize and
// the solver is left unusable. Like Preprocess, the solver keeps a
// reference to l: a whole gather leaf solves on l itself, and a
// level-ordered one also copies l's rows through its order.
func (s *Solver[T]) RefreshValues(l *sparse.CSR[T]) error {
	if l.Rows != s.n || l.Cols != s.n {
		return fmt.Errorf("%w: refresh with %dx%d matrix, plan is %dx%d", ErrSerialize, l.Rows, l.Cols, s.n, s.n)
	}
	cur := l
	if s.perm != nil && !s.inPlace {
		var err error
		cur, err = sparse.PermuteSym(l, s.perm)
		if err != nil {
			return fmt.Errorf("%w: refresh: %v", ErrSerialize, err)
		}
	}
	var cscAll *sparse.CSC[T]
	for i := range s.tris {
		tb := &s.tris[i]
		if tb.lower != nil {
			nnz := tb.lower.NNZ()
			var err error
			if tb.ord != nil {
				// orderedRows checks each row as it copies it.
				var m *sparse.CSR[T]
				if m, err = orderedRows(l, tb.ord, s.perm); err == nil {
					tb.lower, tb.inOrder = m, l
				}
			} else {
				tb.lower = gatherCSR(cur, tb.lo, tb.hi)
				err = tb.validate()
			}
			if err != nil {
				return fmt.Errorf("%w: refresh tri block %d: %v", ErrSerialize, i, err)
			}
			if tb.lower.NNZ() != nnz {
				return fmt.Errorf("%w: refresh tri block %d: structure mismatch", ErrSerialize, i)
			}
			continue
		}
		if cscAll == nil {
			cscAll = cur.ToCSC()
		}
		strict, diag, err := sparse.SplitDiagBlock(cscAll, tb.lo, tb.hi)
		if err != nil {
			return fmt.Errorf("%w: refresh tri block %d: %v", ErrSerialize, i, err)
		}
		if strict.NNZ() != tb.strictCSC.NNZ() || len(diag) != len(tb.diag) {
			return fmt.Errorf("%w: refresh tri block %d: structure mismatch", ErrSerialize, i)
		}
		tb.strictCSC = strict
		tb.diag = diag
		if tb.strictCSR != nil {
			tb.strictCSR = strict.ToCSR()
		}
	}
	for i := range s.sqs {
		sb := &s.sqs[i]
		csr := sparse.SubCSR(cur, sb.spec.rowLo, sb.spec.rowHi, sb.spec.colLo, sb.spec.colHi)
		switch {
		case sb.csr != nil:
			if csr.NNZ() != sb.csr.NNZ() {
				return fmt.Errorf("%w: refresh square block %d: structure mismatch", ErrSerialize, i)
			}
			sb.csr = csr
		case sb.dcsr != nil:
			if csr.NNZ() != sb.dcsr.NNZ() {
				return fmt.Errorf("%w: refresh square block %d: structure mismatch", ErrSerialize, i)
			}
			sb.dcsr = csr.ToDCSR()
		}
	}
	s.orig = l
	return nil
}

// SetTrace attaches (or, with nil, detaches) a step recorder after
// construction — the post-hoc equivalent of Options.Trace, usable on
// deserialised solvers too. It precomputes the per-step geometry the
// recorder copies on the hot path and the pprof label set applied around
// each step. Not safe to call concurrently with solves.
func (s *Solver[T]) SetTrace(r *trace.StepRecorder) {
	s.opts.Trace = r
	if r == nil {
		s.meta, s.labels = nil, nil
		return
	}
	s.meta = make([]trace.StepMeta, len(s.steps))
	s.labels = make([]context.Context, len(s.steps))
	for si, st := range s.steps {
		m := trace.StepMeta{Tri: st.kind == triSeg, Block: int32(st.idx)}
		kind := "spmv"
		if m.Tri {
			tb := &s.tris[st.idx]
			kind, m.Rows, m.Cols = "tri", int32(tb.hi-tb.lo), int32(tb.hi-tb.lo)
			m.NNZ, m.Levels, m.Kernel = int32(tb.nnz()), int32(tb.feats.NLevels), uint8(tb.kernel)
		} else {
			sb := &s.sqs[st.idx]
			m.Rows, m.Cols = int32(sb.spec.rowHi-sb.spec.rowLo), int32(sb.spec.colHi-sb.spec.colLo)
			m.NNZ, m.Kernel = int32(sb.feats.NNZ), uint8(sb.kernel)
		}
		s.meta[si] = m
		s.labels[si] = pprof.WithLabels(context.Background(), pprof.Labels(
			"sptrsv_step", strconv.Itoa(si),
			"sptrsv_kind", kind,
			"sptrsv_block", strconv.Itoa(st.idx)))
	}
}

// Trace returns the attached step recorder, or nil.
func (s *Solver[T]) Trace() *trace.StepRecorder { return s.opts.Trace }

func buildTriBlock[T sparse.Float](cscAll *sparse.CSC[T], spec segSpec, o Options) (triBlock[T], error) {
	strict, diag, err := sparse.SplitDiagBlock(cscAll, spec.rowLo, spec.rowHi)
	if err != nil {
		return triBlock[T]{}, fmt.Errorf("block: triangular block %v: %w", spec, err)
	}
	info := levelset.FromLowerCSC(strict)
	tb := triBlock[T]{
		lo: spec.rowLo, hi: spec.rowHi,
		diag:      diag,
		strictCSC: strict,
		info:      info,
		feats:     adapt.TriFeaturesOf(strict, info),
	}
	switch {
	case tb.feats.NLevels <= 1:
		// A diagonal-only block is completely parallel no matter what the
		// caller forced; the kernels are semantically identical here and
		// this one never loses.
		tb.kernel = kernels.TriCompletelyParallel
	case o.treeSelects():
		tb.kernel = o.Thresholds.SelectTri(tb.feats)
	case o.ForceTri == kernels.TriCompletelyParallel:
		return triBlock[T]{}, fmt.Errorf("block: cannot force completely-parallel kernel on block %v with %d levels", spec, tb.feats.NLevels)
	default:
		tb.kernel = o.ForceTri
	}
	switch tb.kernel {
	case kernels.TriSyncFree:
		tb.state = kernels.NewSyncFreeState(strict)
	case kernels.TriCuSparseLike:
		tb.strictCSR = strict.ToCSR()
		tb.sched = kernels.NewMergedSchedule(info, 0, o.Pool.Workers())
	}
	// level-set keeps info; completely-parallel and serial need nothing.
	return tb, nil
}

// buildGatherLeaf builds a serial leaf in gather form and checks it as
// the loader does (triBlock.validate): sorted rows, lower triangular,
// each row ending in a nonzero diagonal. Preprocess checks only the last
// entry of each row, and the gather reads every other entry as solved,
// so an entry above the diagonal must be refused here, as SplitDiagBlock
// refuses it on the scatter's path.
func buildGatherLeaf[T sparse.Float](cur *sparse.CSR[T], spec segSpec) (triBlock[T], error) {
	tb := triBlock[T]{lo: spec.rowLo, hi: spec.rowHi, lower: gatherCSR(cur, spec.rowLo, spec.rowHi),
		kernel: kernels.TriSerial, feats: spec.feats}
	if err := tb.validate(); err != nil {
		return triBlock[T]{}, fmt.Errorf("block: triangular block %v: %w", spec, err)
	}
	return tb, nil
}

// gatherCSR is a gather leaf's storage: rows [lo,hi) of the plan-order
// matrix cur as a lower CSR, diagonal last. A leaf that covers the whole
// matrix is cur itself, with no copy.
func gatherCSR[T sparse.Float](cur *sparse.CSR[T], lo, hi int) *sparse.CSR[T] {
	if lo == 0 && hi == cur.Rows {
		return cur
	}
	return sparse.SubCSR(cur, lo, hi, lo, hi)
}

// buildOrderedLeaf builds the level-ordered whole leaf: the walk stopped
// at the root with Algorithm 7's serial verdict, and the root's level
// order perm moves rows. The leaf keeps L's rows in that order, checked
// as they are copied (orderedRows), for single-RHS solves, which gain
// from the order's independent rows, and L itself for batch solves,
// whose k values a row are independent already and which read b and x
// in order. Both solve on the caller's vectors.
func buildOrderedLeaf[T sparse.Float](l *sparse.CSR[T], perm []int, spec segSpec) (triBlock[T], error) {
	ord := sparse.InvertPerm(perm)
	lower, err := orderedRows(l, ord, perm)
	if err != nil {
		return triBlock[T]{}, fmt.Errorf("block: triangular block %v: %w", spec, err)
	}
	return triBlock[T]{lo: spec.rowLo, hi: spec.rowHi, lower: lower, ord: ord, inOrder: l,
		kernel: kernels.TriSerial, feats: spec.feats}, nil
}

// orderedRows copies the rows of l in the order ord, keeping l's column
// indices and entry order, and checks each row as it copies it
// (checkOrderedRow). pos is ord's inverse: pos[i] is where row i lands.
func orderedRows[T sparse.Float](l *sparse.CSR[T], ord, pos []int) (*sparse.CSR[T], error) {
	n := len(ord)
	nnz := l.NNZ()
	m := &sparse.CSR[T]{Rows: n, Cols: n, RowPtr: make([]int, n+1),
		ColIdx: make([]int, 0, nnz), Val: make([]T, 0, nnz)}
	for q, i := range ord {
		lo, hi := l.RowPtr[i], l.RowPtr[i+1]
		if err := checkOrderedRow(l.ColIdx[lo:hi], l.Val[lo:hi], q, i, pos); err != nil {
			return nil, err
		}
		m.ColIdx = append(m.ColIdx, l.ColIdx[lo:hi]...)
		m.Val = append(m.Val, l.Val[lo:hi]...)
		m.RowPtr[q+1] = len(m.ColIdx)
	}
	return m, nil
}

// checkOrderedRow checks row q of a level-ordered whole leaf, which is
// row i of L: it ends in its own nonzero diagonal, its other columns rise
// to the left of it, and each of them reads a row placed before q, so
// the ordered gather reads only solved values. pos places each row.
func checkOrderedRow[T sparse.Float](cols []int, vals []T, q, i int, pos []int) error {
	last := len(cols) - 1
	if last < 0 || cols[last] != i || vals[last] == 0 {
		return fmt.Errorf("%w: row %d does not end in its own nonzero diagonal", sparse.ErrSingular, i)
	}
	prev := -1
	for _, c := range cols[:last] {
		if c <= prev || c >= i {
			return fmt.Errorf("%w: row %d: columns do not rise to the diagonal at column %d", sparse.ErrShape, i, c)
		}
		if pos[c] >= q {
			return fmt.Errorf("%w: row %d reads row %d, which is not placed before it", sparse.ErrShape, i, c)
		}
		prev = c
	}
	return nil
}

// onlyGatherLeaf reports whether the plan is one gather leaf in the
// caller's numbering: unpermuted, its CSR is the caller's matrix (or,
// reloaded, a copy of it); under a level order, it also keeps the
// ordered copy of L's rows. Either way run solves on the caller's b and
// x with no copy into the scratch.
func (s *Solver[T]) onlyGatherLeaf() bool {
	return len(s.steps) == 1 && len(s.tris) == 1 && s.tris[0].lower != nil &&
		(s.perm == nil || s.tris[0].ord != nil)
}

func buildSqBlock[T sparse.Float](cur *sparse.CSR[T], spec segSpec, o Options) sqBlock[T] {
	csr := sparse.SubCSR(cur, spec.rowLo, spec.rowHi, spec.colLo, spec.colHi)
	sb := sqBlock[T]{spec: spec, csr: csr, feats: adapt.SpMVFeaturesOf(csr)}
	if o.ForceSpMV == kernels.SpMVAuto {
		sb.kernel = o.Thresholds.SelectSpMV(sb.feats)
	} else {
		sb.kernel = o.ForceSpMV
	}
	switch sb.kernel {
	case kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR:
		// DCSR kernels keep only the doubly-compressed form — dropping the
		// empty-row pointer storage is the format's point.
		sb.dcsr = csr.ToDCSR()
		sb.csr = nil
	}
	return sb
}

// Rows reports the system size.
func (s *Solver[T]) Rows() int { return s.n }

// Name identifies the solver configuration for reports.
func (s *Solver[T]) Name() string {
	suffix := ""
	if !s.opts.Reorder {
		suffix = "-noreorder"
	}
	return "block-" + s.opts.Kind.String() + suffix
}

// Traffic reports the partition's dense-equivalent traffic (Tables 1–2).
func (s *Solver[T]) Traffic() Traffic { return s.traffic }

// NumTriBlocks reports how many triangular leaves the partition produced.
func (s *Solver[T]) NumTriBlocks() int { return len(s.tris) }

// NumSquareBlocks reports how many off-diagonal blocks the partition
// produced.
func (s *Solver[T]) NumSquareBlocks() int { return len(s.sqs) }

// SquareNNZ reports how many nonzeros landed in off-diagonal blocks — the
// quantity the level-set reordering of §3.3 increases ("more nonzeros are
// concentrated in square parts").
func (s *Solver[T]) SquareNNZ() int { return s.sqNNZ }

// Perm returns a copy of the applied symmetric permutation
// (newIdx[original] = position), or nil when no reordering was applied.
func (s *Solver[T]) Perm() []int {
	if s.perm == nil {
		return nil
	}
	return append([]int(nil), s.perm...)
}

// TriKernelCounts tallies the selected SpTRSV kernel per triangular block.
func (s *Solver[T]) TriKernelCounts() map[kernels.TriKernel]int {
	m := make(map[kernels.TriKernel]int)
	for i := range s.tris {
		m[s.tris[i].kernel]++
	}
	return m
}

// SpMVKernelCounts tallies the selected SpMV kernel per square block.
func (s *Solver[T]) SpMVKernelCounts() map[kernels.SpMVKernel]int {
	m := make(map[kernels.SpMVKernel]int)
	for i := range s.sqs {
		m[s.sqs[i].kernel]++
	}
	return m
}

// Describe returns a multi-line report of the preprocessed structure:
// partition shape, per-kernel block counts, square-nnz share and traffic —
// the introspection used by examples and tools.
func (s *Solver[T]) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: n=%d, %d triangular + %d square blocks\n",
		s.Name(), s.n, len(s.tris), len(s.sqs))
	totalNNZ := s.sqNNZ
	for i := range s.tris {
		totalNNZ += s.tris[i].nnz()
	}
	share := 0.0
	if totalNNZ > 0 {
		share = 100 * float64(s.sqNNZ) / float64(totalNNZ)
	}
	fmt.Fprintf(&sb, "square blocks hold %.1f%% of nonzeros; reordered=%v\n", share, s.perm != nil)
	fmt.Fprintf(&sb, "traffic per solve: %d b-updates, %d x-loads (dense-equivalent)\n",
		s.traffic.BUpdates, s.traffic.XLoads)
	fmt.Fprintf(&sb, "tri kernels: %v\n", formatTriCounts(s.TriKernelCounts()))
	fmt.Fprintf(&sb, "spmv kernels: %v", formatSpMVCounts(s.SpMVKernelCounts()))
	return sb.String()
}

func formatTriCounts(m map[kernels.TriKernel]int) string {
	order := []kernels.TriKernel{
		kernels.TriCompletelyParallel, kernels.TriLevelSet,
		kernels.TriSyncFree, kernels.TriCuSparseLike, kernels.TriSerial,
	}
	return formatCounts(order, func(k kernels.TriKernel) (string, int) { return k.String(), m[k] })
}

func formatSpMVCounts(m map[kernels.SpMVKernel]int) string {
	order := []kernels.SpMVKernel{
		kernels.SpMVScalarCSR, kernels.SpMVVectorCSR,
		kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR, kernels.SpMVSerial,
	}
	return formatCounts(order, func(k kernels.SpMVKernel) (string, int) { return k.String(), m[k] })
}

// formatCounts renders kernel tallies in a stable order (map iteration
// order would make Describe non-deterministic).
func formatCounts[K comparable](order []K, get func(K) (string, int)) string {
	var sb strings.Builder
	first := true
	for _, k := range order {
		name, n := get(k)
		if n == 0 {
			continue
		}
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%s\u00d7%d", name, n)
	}
	if first {
		return "none"
	}
	return sb.String()
}

// Stats returns the accumulated instrumentation counters.
func (s *Solver[T]) Stats() SolveStats { return s.own.stats }

// ResetStats clears the instrumentation counters.
func (s *Solver[T]) ResetStats() { s.own.stats = SolveStats{} }

// Solve computes x with L·x = b. b is not modified; b and x may be the
// same slice. Not safe for concurrent use — the solver owns scratch state;
// use NewSession for concurrent solving over the same analysis.
//
//sptrsv:hotpath
func (s *Solver[T]) Solve(b, x []T) { s.own.Solve(b, x) }

// run is the one plan executor behind Solve, SolveContext, SolveBatch and
// SolveBatchContext. It permutes b into the session's scratch, walks the
// plan's blocks in execution order over k row-major right-hand sides —
// the single-RHS kernels at k == 1, the batch kernels above — and
// unpermutes into x. An in-place plan, one gather leaf in the caller's
// numbering, reads b and writes x directly, with no permute or unpermute
// pass: the gather never writes its right-hand side, and it reads b[i]
// before it writes x[i], so b and x may still alias. Callers check the
// argument lengths and size the scratch for k.
//
// A nil guard is the plain solve. A live guard is polled before every
// step and inside the kernels; run reports false once it trips, leaving x
// unspecified and the cause in the guard. With a step recorder attached,
// the steps record under solve id sid, or under a fresh one when sid is
// 0. Either way this loop is the one place a solve is instrumented,
// traced, labelled for pprof and counted, and its per-step clock reads
// make the whole function a measurement site.
//
//sptrsv:hotpath
//sptrsv:wallclock
func (ses *Session[T]) run(b, x []T, k int, g *exec.Guard, sid int64) bool {
	s := ses.s
	rec, instrument := s.opts.Trace, s.opts.Instrument
	timed := instrument || rec != nil
	var solveT0 time.Time
	if timed {
		solveT0 = time.Now()
	}
	nk := s.n * k
	w, xp := b, x
	if !s.inPlace {
		w = ses.w[:nk]
		if s.perm == nil {
			copy(w, b)
		} else {
			xp = ses.xp[:nk]
			if k == 1 {
				sparse.PermuteVecInto(w, b, s.perm)
			} else {
				permuteRowsInto(w, b, s.perm, k)
			}
		}
	}
	if rec != nil && sid == 0 {
		sid = trace.BeginSolve(rec)
	}
	stats := &ses.stats
	stats.LastTraceID = sid
	for si, st := range s.steps {
		if g.Tripped() {
			break
		}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		if s.labels != nil {
			pprof.SetGoroutineLabels(s.labels[si])
		}
		if st.kind == triSeg {
			if faultinject.Enabled {
				faultinject.PanicAt("tri-block", st.idx)
			}
			tb := &s.tris[st.idx]
			if !s.solveTri(tb, w[tb.lo*k:tb.hi*k], xp[tb.lo*k:tb.hi*k], k, stateFor(ses.states, st.idx, tb), g) {
				break
			}
			mTriCalls[tb.kernel].Inc()
		} else {
			sb := &s.sqs[st.idx]
			xs, ws := xp[sb.spec.colLo*k:sb.spec.colHi*k], w[sb.spec.rowLo*k:sb.spec.rowHi*k]
			if k == 1 {
				kernels.RunSpMV(s.pool, sb.kernel, sb.csr, sb.dcsr, xs, ws)
			} else {
				kernels.RunSpMVBatch(s.pool, sb.kernel, sb.csr, sb.dcsr, xs, ws, k)
			}
			g.Step()
			mSpMVCalls[sb.kernel].Inc()
		}
		if timed {
			d := time.Since(t0)
			if instrument {
				if st.kind == triSeg {
					stats.TriTime += d
					stats.TriCalls++
				} else {
					stats.SpMVTime += d
					stats.SpMVCalls++
				}
			}
			if rec != nil {
				trace.RecordStep(rec, sid, si, s.meta[si], t0, d)
			}
		}
	}
	if s.labels != nil {
		pprof.SetGoroutineLabels(bgLabels)
	}
	if g.Tripped() {
		return false
	}
	if faultinject.Enabled {
		if row, v, ok := faultinject.Poison("solution"); ok && row*k < len(xp) {
			xp[row*k] = T(v)
		}
	}
	if s.perm != nil && !s.inPlace {
		if k == 1 {
			sparse.UnpermuteVecInto(x, xp, s.perm)
		} else {
			unpermuteRowsInto(x, xp, s.perm, k)
		}
	}
	stats.Solves++
	mSolves.Inc()
	if timed {
		// Only solves that already pay for step timestamps feed the
		// solve-latency histogram; plain solves skip even these clock reads.
		mSolveTime.Observe(time.Since(solveT0))
	}
	return true
}

// bgLabels clears the per-step pprof labels after a traced solve.
var bgLabels = context.Background()

// stateFor picks the sync-free state: the session's private copy when one
// exists, the solver-owned one otherwise.
//
//sptrsv:hotpath
func stateFor[T sparse.Float](states []*kernels.SyncFreeState, idx int, tb *triBlock[T]) *kernels.SyncFreeState {
	if states != nil && states[idx] != nil {
		return states[idx]
	}
	return tb.state
}

// solveTri is the one triangular-kernel dispatch: block tb's selected
// kernel over k right-hand sides, the single-RHS kernel at k == 1 and its
// batch counterpart above. The completely-parallel kernel takes one guard
// progress step per block; the others step and poll the guard inside. It
// reports false when g tripped before the block finished.
//
//sptrsv:hotpath
func (s *Solver[T]) solveTri(tb *triBlock[T], w, x []T, k int, state *kernels.SyncFreeState, g *exec.Guard) bool {
	switch tb.kernel {
	case kernels.TriCompletelyParallel:
		if k == 1 {
			//lint:ignore escapecheck TriDiagOnlySolve's launch body, inlined here: one closure per launch, as in the kernel
			kernels.TriDiagOnlySolve(s.pool, tb.diag, w, x)
		} else {
			//lint:ignore escapecheck TriDiagOnlySolveBatch's launch body, inlined here: one closure per launch, as in the kernel
			kernels.TriDiagOnlySolveBatch(s.pool, tb.diag, w, x, k)
		}
	case kernels.TriLevelSet:
		if k == 1 {
			return kernels.TriLevelSetSolve(s.pool, tb.strictCSC, tb.diag, tb.info, w, x, g)
		}
		return kernels.TriLevelSetSolveBatch(s.pool, tb.strictCSC, tb.diag, tb.info, w, x, k, g)
	case kernels.TriSyncFree:
		if k == 1 {
			return kernels.TriSyncFreeSolve(s.pool, state, tb.strictCSC, tb.diag, w, x, g)
		}
		return kernels.TriSyncFreeSolveBatch(s.pool, state, tb.strictCSC, tb.diag, w, x, k, g)
	case kernels.TriCuSparseLike:
		if k == 1 {
			return kernels.TriCuSparseLikeSolve(s.pool, tb.sched, tb.strictCSR, tb.diag, w, x, g)
		}
		return kernels.TriCuSparseLikeSolveBatch(s.pool, tb.sched, tb.strictCSR, tb.diag, w, x, k, g)
	case kernels.TriSerial:
		switch {
		case tb.ord != nil && k == 1:
			return kernels.SerialSolveCSROrdered(tb.lower, tb.ord, w, x, g)
		case tb.ord != nil:
			return kernels.SerialSolveCSRBatch(tb.inOrder, w, x, k, g)
		case tb.lower != nil && k == 1:
			return kernels.SerialSolveCSR(tb.lower, w, x, g)
		case tb.lower != nil:
			return kernels.SerialSolveCSRBatch(tb.lower, w, x, k, g)
		case k == 1:
			return kernels.TriSerialSolve(tb.strictCSC, tb.diag, w, x, g)
		}
		return kernels.TriSerialSolveBatch(tb.strictCSC, tb.diag, w, x, k, g)
	default:
		panic(fmt.Sprintf("block: unresolved tri kernel %v", tb.kernel))
	}
	g.Step()
	return true
}

// SolveMulti solves L·X = B column by column: B and X are sets of
// right-hand sides / solutions of equal length. This is the
// multiple-right-hand-sides scenario the paper's preprocessing cost
// amortises over (§4.4).
func (s *Solver[T]) SolveMulti(b, x [][]T) {
	if len(b) != len(x) {
		panic(fmt.Sprintf("block: SolveMulti got %d rhs and %d solutions", len(b), len(x)))
	}
	for k := range b {
		s.Solve(b[k], x[k])
	}
}
