// Package block implements the paper's contribution: the column, row and
// recursive block algorithms for parallel SpTRSV (§3.1), the improved
// recursive data structure with level-set reordering and alternating
// triangular/square storage (§3.3), and adaptive per-block kernel selection
// (§3.4, Algorithm 7).
package block

import (
	"time"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/trace"
)

// Kind selects which of the three block partitions a solver uses.
type Kind uint8

const (
	// Recursive splits the triangle into two half-size triangles plus a
	// square block, recursively (Algorithm 6 / Figure 2c).
	Recursive Kind = iota
	// ColumnBlock splits into vertical panels, each a triangle on top of a
	// tall rectangle (Algorithm 4 / Figure 2a).
	ColumnBlock
	// RowBlock splits into horizontal panels, each a wide rectangle left
	// of a triangle (Algorithm 5 / Figure 2b).
	RowBlock
)

func (k Kind) String() string {
	switch k {
	case Recursive:
		return "recursive"
	case ColumnBlock:
		return "column"
	case RowBlock:
		return "row"
	}
	return "unknown"
}

// Options configure preprocessing and execution of a block solver.
// The zero value plus Defaults() gives the paper's recommended
// configuration: recursive partition, level-set reordering, adaptive
// kernel selection, recursion cut-off tied to the device size.
type Options struct {
	// Pool is the execution pool; nil creates one with Workers workers
	// in the Style launch style, whose workers exit once no solver holds
	// it. A pool passed here is the caller's to Close.
	Pool exec.Launcher
	// Workers sizes the pool when Pool is nil; <=0 means GOMAXPROCS.
	Workers int
	// Style selects the launcher implementation when Pool is nil. The
	// zero value is exec.LaunchSpin, the lowest-latency launcher.
	Style exec.LaunchStyle

	// Kind selects the partition shape.
	Kind Kind
	// NSeg is the number of panels for ColumnBlock/RowBlock partitions
	// (ignored by Recursive). <=1 degenerates to a single triangle.
	NSeg int
	// MinBlockRows stops recursive splitting: blocks at or below this many
	// rows become leaves. <=0 derives the paper's "20 × core count"
	// analogue from the device (exec.Device.MinBlockRows). With the serial
	// floor on (Thresholds.TriParallelMinWork > 0 and the thresholds
	// choosing the kernels) it binds only ranges that Algorithm 7 sends to
	// a parallel dependent kernel; a range it sends to the serial or
	// completely-parallel kernel stays whole.
	MinBlockRows int
	// MaxDepth caps recursive split depth; 0 means limited only by
	// MinBlockRows. Depth d yields up to 2^d triangular leaves.
	MaxDepth int

	// Reorder applies the improved structure's level-set reordering (§3.3)
	// to every triangular range in the partition tree.
	Reorder bool
	// Thresholds override the decision-tree cut points; the zero value
	// selects adapt.DefaultThresholds.
	Thresholds adapt.Thresholds
	// ForceTri / ForceSpMV pin the kernel of every triangular / square
	// block. The zero values, kernels.TriAuto / kernels.SpMVAuto, select
	// each block's kernel by the decision tree (§3.4).
	ForceTri  kernels.TriKernel
	ForceSpMV kernels.SpMVKernel

	// Instrument accumulates per-solve timing of the triangular and SpMV
	// phases (Figure 4's measurement). It adds two clock reads per
	// segment per solve.
	Instrument bool
	// Trace attaches a per-step execution recorder: every plan step of
	// every solve records kind, kernel, geometry and wall time into the
	// recorder's bounded ring, exportable as a text table or Chrome
	// trace_event JSON. nil (the default) is tested per solve, not per
	// step, and with Instrument also off the steps read no clock. See
	// trace.NewStepRecorder and Solver.SetTrace.
	Trace *trace.StepRecorder

	// Validate runs sparse.ValidateLower on the input at preprocessing
	// time: sorted in-bounds indices, finite values, a present nonzero
	// diagonal. Defects surface as typed errors (sparse.ErrZeroDiagonal,
	// sparse.ErrNonFinite, sparse.ErrNotTriangular) instead of NaN
	// solutions or hangs later. One O(nnz) sweep, preprocessing only.
	Validate bool
	// VerifyResidual, when > 0, makes SolveContext check the solution's
	// scaled infinity-norm residual max_i |(L·x-b)_i|/(1+|b_i|) against
	// this tolerance. On failure the solve degrades gracefully: one
	// iterative-refinement step (solve L·δ = b−L·x, add δ), then the
	// serial reference fallback; if even that misses the tolerance, a
	// ResidualError is returned. Plain Solve never verifies.
	VerifyResidual float64
	// StallTimeout arms the watchdog of SolveContext and
	// SolveBatchContext: a solve whose progress counter stops moving for
	// this long is aborted with a StallError carrying the stalled
	// component and its remaining dependency count. Zero disables the
	// watchdog. Plain Solve and SolveBatch are never watched.
	StallTimeout time.Duration
}

// Defaults returns the paper-recommended configuration for a device. The
// pool itself is created lazily (normalised), so overriding Options.Pool
// before Preprocess never strands a resident-worker pool.
func Defaults(dev exec.Device) Options {
	return Options{
		Workers:      dev.Workers,
		Style:        dev.Style,
		Kind:         Recursive,
		MinBlockRows: dev.MinBlockRows(),
		Reorder:      true,
		Thresholds:   adapt.DefaultThresholds(),
	}
}

// treeSelects reports whether Algorithm 7's thresholds choose the
// triangular kernels, which they do unless ForceTri pins one.
func (o Options) treeSelects() bool {
	return o.ForceTri == kernels.TriAuto
}

// floorOn reports whether the serial floor is on: the thresholds choose
// the kernels and TriParallelMinWork > 0, exactly when Explain's
// serial-floor prints a number above 0. Only then does the recursion stop
// at ranges Algorithm 7 sends to the serial or completely-parallel kernel,
// and do empty squares leave the plan. Otherwise the partition is the
// paper's size-only tree, which its figures use.
func (o Options) floorOn() bool {
	return o.treeSelects() && o.Thresholds.TriParallelMinWork > 0
}

// normalised fills derived fields: pool, thresholds, cut-off. The default
// pool is an implicit launcher of the configured style (a SpinPool unless
// Style says otherwise): idle workers park, and they exit once no solver
// holds the pool.
func (o Options) normalised() Options {
	if o.Pool == nil {
		o.Pool = exec.NewImplicitLauncher(o.Style, o.Workers)
	}
	if o.Thresholds == (adapt.Thresholds{}) {
		o.Thresholds = adapt.DefaultThresholds()
	}
	if o.MinBlockRows <= 0 {
		o.MinBlockRows = exec.Device{Workers: o.Pool.Workers()}.MinBlockRows()
	}
	if o.NSeg < 1 {
		o.NSeg = 1
	}
	return o
}
