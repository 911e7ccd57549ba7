package block

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Explain renders the full preprocessed plan before any solve runs: the
// configuration, the partition tree in execution order (indented by
// recursion depth), each block's adapt features and selected kernel, and
// the traffic/kernel summaries. Each triangular line's work/level is
// what the options line's serial-floor, TriParallelMinWork of
// adapt.Thresholds, was compared with; serial-floor=n/a when no decision
// tree chose the kernels. Each triangular line's stop names the rule that
// ended the recursion there: size (at most minblockrows rows), depth
// (maxdepth reached), serial or one-level (with the floor on, Algorithm 7
// sends the whole range to the serial or completely-parallel kernel), or
// n/a for panel partitions. Each serial line also names the leaf's form,
// form=gather (CSR gather, every stop=serial leaf) or form=scatter (CSC
// scatter). The output is deterministic — two identical Preprocess
// calls explain identically — so tests and tooling may diff it.
//
// Solvers reloaded with LoadSolver explain flat, with stop=n/a (the
// recursion depths and stop rules are a preprocessing artefact and are
// not serialised); a serial line still names the stored form.
func (s *Solver[T]) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d, %d triangular + %d square blocks\n",
		s.Name(), s.n, len(s.tris), len(s.sqs))
	fmt.Fprintf(&b, "options: partition=%s workers=%d minblockrows=%d maxdepth=%d nseg=%d reorder=%v adaptive=%v serial-floor=%s\n",
		s.opts.Kind, s.pool.Workers(), s.opts.MinBlockRows, s.opts.MaxDepth, s.opts.NSeg,
		s.opts.Reorder, s.opts.Adaptive, treeFloor(s.opts))
	fmt.Fprintf(&b, "reordered=%v traffic: %d b-updates, %d x-loads (dense-equivalent)\n",
		s.perm != nil, s.traffic.BUpdates, s.traffic.XLoads)
	b.WriteString("execution plan:\n")
	for si, st := range s.steps {
		var spec segSpec
		if si < len(s.plan) {
			spec = s.plan[si]
		}
		indent := strings.Repeat("  ", spec.depth)
		if st.kind == triSeg {
			tb := &s.tris[st.idx]
			f := tb.feats
			fmt.Fprintf(&b, "%4d  %stri  #%d [%d:%d)  rows=%d strict-nnz=%d nnz/row=%.2f levels=%d work/level=%d  kernel=%s%s stop=%s\n",
				si, indent, st.idx, tb.lo, tb.hi, f.Rows, f.StrictNNZ, f.NNZPerRow, f.NLevels, f.WorkPerLevel(), tb.kernel, serialForm(tb), spec.stop)
		} else {
			sb := &s.sqs[st.idx]
			f := sb.feats
			fmt.Fprintf(&b, "%4d  %ssq   #%d [%d:%d)x[%d:%d)  rows=%d nnz=%d nnz/row=%.2f empty=%.0f%%  kernel=%s\n",
				si, indent, st.idx, sb.spec.rowLo, sb.spec.rowHi, sb.spec.colLo, sb.spec.colHi,
				f.Rows, f.NNZ, f.NNZPerRow, 100*f.EmptyRatio, sb.kernel)
		}
	}
	fmt.Fprintf(&b, "tri kernels: %v\n", formatTriCounts(s.TriKernelCounts()))
	fmt.Fprintf(&b, "spmv kernels: %v\n", formatSpMVCounts(s.SpMVKernelCounts()))
	return b.String()
}

// serialForm renders a serial leaf's form for its Explain line, and
// nothing for other kernels.
func serialForm[T sparse.Float](tb *triBlock[T]) string {
	switch {
	case tb.kernel != kernels.TriSerial:
		return ""
	case tb.lower != nil:
		return " form=gather"
	}
	return " form=scatter"
}

// Explain renders the shared solver's plan (see Solver.Explain).
func (ses *Session[T]) Explain() string { return ses.s.Explain() }

// treeFloor is the serial floor the decision tree compared each
// triangular block with, or "n/a" when kernels were forced, timed by the
// calibrator, or read from a saved plan (which stores no thresholds).
func treeFloor(o Options) string {
	if !o.treeSelects() || o.Thresholds == (adapt.Thresholds{}) {
		return "n/a"
	}
	return strconv.Itoa(o.Thresholds.TriParallelMinWork)
}
