package trace

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/metrics"
)

// Per-step execution tracing. A StepRecorder attached to a block solver
// receives one record per plan step per solve into its preallocated ring,
// so tracing a solve costs two clock reads, one short critical section
// and one struct copy per step, and never allocates. The solver tests a
// nil recorder once per solve, not per step: with instrumentation also
// off, its steps read no clock.

// Step is one recorded plan step in exported form.
type Step struct {
	// Solve is the 1-based solve id the step belongs to (solves of
	// concurrent sessions interleave in the ring but keep distinct ids).
	Solve int64
	// Step is the step's index in the execution plan.
	Step int
	// Kind is "tri" for triangular solves, "spmv" for square updates.
	Kind string
	// Block is the index of the triangular or square block.
	Block int
	// Kernel is the selected kernel's name.
	Kernel string
	// Rows and Cols are the block extents (Cols == Rows for triangles).
	Rows, Cols int
	// NNZ is the block's stored nonzeros (diagonal included for triangles).
	NNZ int
	// Levels is the triangle's level-set count (0 for squares).
	Levels int
	// Start is the step's start offset from the process-wide trace origin
	// that every export shares.
	Start time.Duration
	// Duration is the step's wall time.
	Duration time.Duration
}

// StepMeta is the static half of a step record: block geometry and
// kernel, which a solver computes once per plan step when a recorder is
// attached, so the hot path copies instead of recomputing.
type StepMeta struct {
	Block, Rows, Cols, NNZ, Levels int32
	// Tri is true for a triangular solve, false for an SpMV update.
	Tri bool
	// Kernel is a kernels.TriKernel or kernels.SpMVKernel, per Tri.
	Kernel uint8
}

// stepRec is the compact in-ring form of a step; Step values are
// materialised only on export, keeping RecordStep copy-only.
type stepRec struct {
	StepMeta
	solve int64
	start int64 // ns since origin
	dur   int64 // ns
	step  int32
}

// StepRecorder is a bounded, concurrency-safe ring of solve steps. One
// recorder may serve a solver, all its sessions, and several solvers
// concurrently: solve ids are unique per recorder. The zero value is not
// usable; construct with NewStepRecorder.
type StepRecorder struct {
	ring[stepRec]
	solves atomic.Int64
}

// NewStepRecorder returns a recorder holding the most recent capacity
// steps (non-positive selects 1<<16). All memory is allocated up front;
// recording never allocates.
func NewStepRecorder(capacity int) *StepRecorder {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &StepRecorder{ring: ring[stepRec]{buf: make([]stepRec, capacity)}}
}

// BeginSolve assigns r's next solve id. It and RecordStep are functions,
// not methods: library users reach StepRecorder through the root
// package's TraceRecorder alias, whose method set is the export API.
//
//sptrsv:hotpath
func BeginSolve(r *StepRecorder) int64 { return r.solves.Add(1) }

// RecordStep appends one step of solve to r: plan step index step, its
// geometry and kernel m, and its start and wall time.
//
//sptrsv:hotpath
func RecordStep(r *StepRecorder, solve int64, step int, m StepMeta, start time.Time, dur time.Duration) {
	r.add(stepRec{
		StepMeta: m,
		solve:    solve,
		start:    start.Sub(origin).Nanoseconds(),
		dur:      dur.Nanoseconds(),
		step:     int32(step),
	})
}

func (rec stepRec) export() Step {
	st := Step{
		Solve:    rec.solve,
		Step:     int(rec.step),
		Block:    int(rec.Block),
		Rows:     int(rec.Rows),
		Cols:     int(rec.Cols),
		NNZ:      int(rec.NNZ),
		Levels:   int(rec.Levels),
		Start:    time.Duration(rec.start),
		Duration: time.Duration(rec.dur),
	}
	if rec.Tri {
		st.Kind = "tri"
		st.Kernel = kernels.TriKernel(rec.Kernel).String()
	} else {
		st.Kind = "spmv"
		st.Kernel = kernels.SpMVKernel(rec.Kernel).String()
	}
	return st
}

// Steps returns the retained steps oldest-first in exported form.
func (r *StepRecorder) Steps() []Step {
	recs, _ := r.last(len(r.buf))
	out := make([]Step, len(recs))
	for i, rec := range recs {
		out[i] = rec.export()
	}
	return out
}

// stepArgs are a step event's Chrome args.
type stepArgs struct {
	Step   int `json:"step"`
	Block  int `json:"block"`
	Rows   int `json:"rows"`
	Cols   int `json:"cols"`
	NNZ    int `json:"nnz"`
	Levels int `json:"levels"`
}

// events renders the retained steps as Chrome events, one per step, named
// by kernel and categorised by kind, with the solve id as the thread id so
// concurrent sessions land on separate timeline rows.
func (r *StepRecorder) events() []event {
	steps := r.Steps()
	out := make([]event, len(steps))
	for i, st := range steps {
		out[i] = newEvent(st.Kernel, st.Kind, st.Solve, st.Start, st.Duration,
			stepArgs{st.Step, st.Block, st.Rows, st.Cols, st.NNZ, st.Levels})
	}
	return out
}

// WriteChromeTrace writes the retained steps as Chrome trace_event JSON,
// one complete event per step with its geometry in args.
func (r *StepRecorder) WriteChromeTrace(w io.Writer) error { return writeChrome(w, r.events()) }

// WriteTable writes the retained steps as an aligned text table,
// oldest-first.
func (r *StepRecorder) WriteTable(w io.Writer) error {
	steps := r.Steps()
	if _, err := fmt.Fprintf(w, "%6s %5s %-5s %6s %-19s %8s %8s %9s %7s %12s %12s\n",
		"solve", "step", "kind", "block", "kernel", "rows", "cols", "nnz", "levels", "start", "dur"); err != nil {
		return err
	}
	for _, st := range steps {
		if _, err := fmt.Fprintf(w, "%6d %5d %-5s %6d %-19s %8d %8d %9d %7d %12v %12v\n",
			st.Solve, st.Step, st.Kind, st.Block, st.Kernel,
			st.Rows, st.Cols, st.NNZ, st.Levels, st.Start, st.Duration); err != nil {
			return err
		}
	}
	if d := r.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "(%d older steps dropped by the bounded ring)\n", d); err != nil {
			return err
		}
	}
	return nil
}

// Summary aggregates the retained steps: wall time and call count per
// segment kind and per kernel. It is what the breakdown experiment and
// the CLI print.
type Summary struct {
	Steps     int
	Solves    int
	TriTime   time.Duration
	SpMVTime  time.Duration
	TriCalls  int64
	SpMVCalls int64
	// StepP50/P90/P99 are upper-bound estimates of the step-duration
	// quantiles, extracted from a log₂ histogram of the retained steps
	// (metrics.Histogram.Quantile: within 2× of the true value).
	StepP50, StepP90, StepP99 time.Duration
	// KernelTime and KernelCalls map kernel name to total wall time and
	// call count.
	KernelTime  map[string]time.Duration
	KernelCalls map[string]int64
}

// Summarize folds the retained steps into per-kind and per-kernel totals
// plus step-duration quantiles.
func (r *StepRecorder) Summarize() Summary {
	s := Summary{
		KernelTime:  make(map[string]time.Duration),
		KernelCalls: make(map[string]int64),
	}
	solves := make(map[int64]struct{})
	var durs metrics.Histogram
	for _, st := range r.Steps() {
		s.Steps++
		solves[st.Solve] = struct{}{}
		if st.Kind == "tri" {
			s.TriTime += st.Duration
			s.TriCalls++
		} else {
			s.SpMVTime += st.Duration
			s.SpMVCalls++
		}
		s.KernelTime[st.Kernel] += st.Duration
		s.KernelCalls[st.Kernel]++
		durs.Observe(st.Duration)
	}
	s.Solves = len(solves)
	if s.Steps > 0 {
		s.StepP50 = durs.Quantile(0.5)
		s.StepP90 = durs.Quantile(0.9)
		s.StepP99 = durs.Quantile(0.99)
	}
	return s
}
