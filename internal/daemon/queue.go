package daemon

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/faultinject"
	"github.com/sss-lab/blocksptrsv/internal/trace"
)

// The admission queue and its workers: one bounded channel per matrix,
// Config.Workers goroutines draining it. A worker takes the head
// request, holds the batch open for Config.Window to coalesce more
// arrivals (up to Config.MaxBatch), drops members whose deadline expired
// while queued, and runs the survivors as one guarded multi-RHS solve.

// request is one admitted right-hand side. done is buffered so workers
// never block resolving a request whose submitter has not reached its
// receive yet. sp is the request's span, marked by whichever goroutine
// owns the request at each phase boundary (always non-nil: every request
// is built by admit, which guarantees a span).
type request struct {
	ctx  context.Context
	b, x []float64
	enq  time.Time
	done chan error
	sp   *trace.Span
}

// pipeline is the per-matrix service state: the shared preprocessed
// solver, the bounded queue, and the counters Stats reports.
type pipeline struct {
	name     string
	solver   *block.Solver[float64]
	n, nnz   int
	queue    chan *request
	window   time.Duration
	maxBatch int

	// slo is the matrix's rolling-window objective monitor, observed at
	// request finish.
	slo *sloMonitor

	batches   atomic.Int64 // batch solves completed
	batched   atomic.Int64 // right-hand sides those batches carried
	shed      atomic.Int64 // refused at admission (queue full)
	expired   atomic.Int64 // dropped at dequeue (deadline passed in queue)
	recovered atomic.Int64 // panics recovered and degraded per-request
	errors    atomic.Int64 // requests resolved with a solve error
	lastNs    atomic.Int64 // duration of the most recent batch solve

	// beforeSolve, when non-nil, runs at the head of every batch solve.
	// It is a test seam: blocking here holds a worker mid-flight so
	// admission-queue behaviour (fill, shed, expiry) can be exercised
	// deterministically. Set it before the first request is submitted.
	beforeSolve func()
}

// retryAfter derives the backpressure hint from the most recent solve:
// by the time one more batch has drained, a queue slot has likely opened.
func (p *pipeline) retryAfter() time.Duration {
	d := time.Duration(p.lastNs.Load())
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// worker owns one session over the pipeline's solver and loops until the
// queue is closed and drained — which is exactly Shutdown's contract:
// range keeps delivering queued requests after close, so everything
// admitted is still resolved before the worker exits.
func (d *Daemon) worker(p *pipeline) {
	defer d.workerExit()
	w := &workerState{p: p, ses: p.solver.NewSession()}
	for first := range p.queue {
		mQueueDepth.Add(-1)
		first.sp.MarkDequeued()
		w.solveBatch(p.gather(first))
	}
}

// workerState is one worker's private solving context: a session (cheap,
// replaced after a recovered panic) and the packed batch scratch.
type workerState struct {
	p           *pipeline
	ses         *block.Session[float64]
	packed, out []float64
}

// gather coalesces: whatever is already queued is taken immediately,
// then the batch is held open for the window. Returns at least first.
func (p *pipeline) gather(first *request) []*request {
	batch := make([]*request, 1, p.maxBatch)
	batch[0] = first
	for len(batch) < p.maxBatch {
		select {
		case r, ok := <-p.queue:
			if !ok {
				return batch
			}
			mQueueDepth.Add(-1)
			r.sp.MarkDequeued()
			batch = append(batch, r)
			continue
		default:
		}
		break
	}
	if p.window <= 0 || len(batch) == p.maxBatch {
		return batch
	}
	t := time.NewTimer(p.window)
	defer t.Stop()
	for len(batch) < p.maxBatch {
		select {
		case r, ok := <-p.queue:
			if !ok {
				return batch
			}
			mQueueDepth.Add(-1)
			r.sp.MarkDequeued()
			batch = append(batch, r)
		case <-t.C:
			return batch
		}
	}
	return batch
}

// solveBatch resolves every request in the batch exactly once: expired
// members are dropped with their context error before any kernel runs,
// the survivors are solved as one guarded multi-RHS solve, and a batch
// failure degrades to the per-request guarded ladder.
func (w *workerState) solveBatch(batch []*request) {
	p := w.p
	if p.beforeSolve != nil {
		p.beforeSolve()
	}
	if faultinject.Enabled {
		faultinject.Slow("daemon-solve")
	}
	live := batch[:0]
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			p.expired.Add(1)
			mExpired.Inc()
			r.sp.MarkExpired()
			r.done <- err
			continue
		}
		mWait.Observe(time.Since(r.enq))
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	for _, r := range live {
		r.sp.MarkSolveStart()
	}
	start := time.Now()
	err := w.solveLive(live)
	p.lastNs.Store(time.Since(start).Nanoseconds())
	if err == nil {
		// One solve id covers the whole coalesced batch: every member's
		// span links to the same per-step trace records.
		sid := w.ses.Stats().LastTraceID
		// batched before batches: Stats loads batches first, so no
		// snapshot shows more batches than right-hand sides.
		p.batched.Add(int64(len(live)))
		mBatchedRHS.Add(int64(len(live)))
		p.batches.Add(1)
		mBatches.Inc()
		for _, r := range live {
			r.sp.MarkSolveEnd(p.solver.Trace(), sid, len(live))
			r.done <- nil
		}
		return
	}
	// The batch failed as a whole — a recovered panic, a stall, or the
	// batch deadline. Isolate: each member retries alone on the fully
	// guarded single-RHS ladder under its own context, so one poisoned
	// request cannot take its neighbours down with it.
	for _, r := range live {
		sid, rerr := w.solveOne(r)
		r.sp.MarkSolveEnd(p.solver.Trace(), sid, 1)
		if rerr != nil {
			p.errors.Add(1)
			mErrors.Inc()
		} else {
			p.batched.Add(1)
			mBatchedRHS.Inc()
			p.batches.Add(1)
			mBatches.Inc()
		}
		r.done <- rerr
	}
}

// solveLive runs the coalesced solve: k==1 goes straight to the guarded
// single-RHS path (verification ladder included); k>1 interleaves the
// right-hand sides row-major and runs SolveBatchContext under the widest
// member deadline, so one tight deadline cannot abort its siblings'
// work. A panic is converted to *SolveFault and the session is replaced
// — recovered panics may leave sync-free counters dirty.
func (w *workerState) solveLive(live []*request) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			mPanics.Inc()
			w.p.recovered.Add(1)
			w.ses = w.p.solver.NewSession()
			err = &SolveFault{Matrix: w.p.name, Panic: fmt.Sprint(rec)}
		}
	}()
	k := len(live)
	if k == 1 {
		r := live[0]
		return w.ses.SolveContext(r.ctx, r.b, r.x)
	}
	n := w.p.n
	if len(w.packed) < n*k {
		w.packed = make([]float64, n*k)
		w.out = make([]float64, n*k)
	}
	bp, xp := w.packed[:n*k], w.out[:n*k]
	for i := 0; i < n; i++ {
		for r := range live {
			bp[i*k+r] = live[r].b[i]
		}
	}
	ctx, cancel := batchContext(live)
	defer cancel()
	if err := w.ses.SolveBatchContext(ctx, bp, xp, k); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		for r := range live {
			live[r].x[i] = xp[i*k+r]
		}
	}
	return nil
}

// solveOne is the degradation rung: one request alone on the guarded
// single-RHS path under its own context, with the same panic isolation.
// sid is the step-trace id of the solve it ran, read from the session
// that ran it (a panic replaces w.ses); 0 when it ran none — the context
// had ended or the arguments were refused — or no recorder is attached.
// Recorder ids only grow, so an unchanged LastTraceID means no solve.
func (w *workerState) solveOne(r *request) (sid int64, err error) {
	ses := w.ses
	prev := ses.Stats().LastTraceID
	defer func() {
		if sid = ses.Stats().LastTraceID; sid == prev {
			sid = 0
		}
		if rec := recover(); rec != nil {
			mPanics.Inc()
			w.p.recovered.Add(1)
			w.ses = w.p.solver.NewSession()
			err = &SolveFault{Matrix: w.p.name, Panic: fmt.Sprint(rec)}
		}
	}()
	if err := r.ctx.Err(); err != nil {
		return 0, err
	}
	return 0, ses.SolveContext(r.ctx, r.b, r.x)
}

// batchContext is the coalesced solve's context: derived from the batch
// head's request context with per-member cancellation detached (one
// member giving up must not abort its siblings' work) and re-armed with
// the widest member deadline, so the batch is aborted only once every
// member has expired. Members with tighter deadlines are still answered
// on time — their own context is what their submitter observes — while
// request-scoped values (trace metadata) keep travelling with the solve.
func batchContext(live []*request) (context.Context, context.CancelFunc) {
	base := context.WithoutCancel(live[0].ctx)
	var widest time.Time
	for _, r := range live {
		d, ok := r.ctx.Deadline()
		if !ok {
			return context.WithCancel(base)
		}
		if d.After(widest) {
			widest = d
		}
	}
	return context.WithDeadline(base, widest)
}
