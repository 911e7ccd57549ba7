package daemon

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/faultinject"
	"github.com/sss-lab/blocksptrsv/internal/trace"
)

// The admission queue and its workers: one bounded channel per matrix,
// Config.Workers goroutines draining it. One worker at a time takes the
// head request and whatever else is queued, holds the batch open for
// Config.Window to coalesce more arrivals (up to Config.MaxBatch) unless
// the head came alone after a quiet spell with no other request on its
// way, drops members whose deadline expired while queued, and runs the
// survivors as one guarded multi-RHS solve.

// request is one admitted right-hand side. done is buffered so workers
// never block resolving a request whose submitter has not reached its
// receive yet. sp is the request's span, marked by whichever goroutine
// owns the request at each phase boundary (always non-nil: every request
// is built by admit, which guarantees a span).
type request struct {
	ctx  context.Context
	b, x []float64
	enq  time.Time
	// gap is the time from the pipeline's previous admission to this one
	// (pipeline.admitGap).
	gap  time.Duration
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

	// born is the pipeline's time origin, and lastAdmit the time of its
	// latest admission after born, in nanoseconds (0 before the first).
	born      time.Time
	lastAdmit atomic.Int64
	// reading counts the HTTP requests for the matrix whose body is being
	// read and decoded: requests on their way to admission.
	reading atomic.Int64
	// gathering is held by the one worker taking a batch (worker).
	gathering sync.Mutex

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

// admitGap records an arrival at admission, at now, and returns the time
// since the pipeline's previous one. Every arrival that reaches the queue
// counts, shed ones too: under load they are the burst. The first reports
// the longest duration, as after an unbounded quiet spell.
func (p *pipeline) admitGap(now time.Time) time.Duration {
	t := int64(now.Sub(p.born))
	if prev := p.lastAdmit.Swap(t); prev != 0 {
		return time.Duration(t - prev)
	}
	return math.MaxInt64
}

// worker owns one session over the pipeline's solver and loops until the
// queue is closed and drained — which is exactly Shutdown's contract: a
// receive keeps delivering queued requests after close, so everything
// admitted is still resolved before the worker exits.
//
// One worker gathers at a time: it takes the head request and coalesces
// behind it (gather) under p.gathering, so while it holds a batch open
// the arrivals join that batch instead of starting a second one on an
// idle worker, and the other workers solve. The lock is held across the
// receive and the hold on purpose: only the pipeline's workers take it,
// never admission or Shutdown, so a holder blocked on the queue keeps
// waiting only workers that would otherwise wait on the queue
// themselves, and a worker still dequeues only when it is free to solve.
func (d *Daemon) worker(p *pipeline) {
	defer d.workerExit()
	w := &workerState{p: p, ses: p.solver.NewSession()}
	for {
		p.gathering.Lock()
		first, ok := <-p.queue
		if !ok {
			p.gathering.Unlock()
			return
		}
		mQueueDepth.Add(-1)
		first.sp.MarkDequeued()
		batch := p.gather(first)
		p.gathering.Unlock()
		w.solveBatch(batch)
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
// then the batch is held open for the window — unless no second request
// could still arrive: the batch is first alone, first came more than a
// window after the admission before it, and no other request for the
// matrix is being read. Such a request has nothing to wait for, and a
// sub-millisecond timer fires after about 1.1 ms in an idle process, so
// the hold would cost more than the window it asks for. Both signals
// are needed. A burst of Solve calls, which no handler reads, lands its
// second arrival within the window; under HTTP saturation the callers'
// own decoding spreads their arrivals beyond the window, but others are
// being read while the worker dequeues. Either holds as before. Returns
// at least first.
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
	if p.window <= 0 || len(batch) == p.maxBatch || len(batch) == 1 && first.gap > p.window && p.reading.Load() == 0 {
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
		k := len(live)
		// A batch solve runs no verification, so a member whose answer
		// is not finite retries alone below, on the ladder that answers
		// it as it would be answered alone.
		var retry []*request
		if k > 1 {
			ok := live[:0]
			for _, r := range live {
				if finite(r.x) {
					ok = append(ok, r)
				} else {
					retry = append(retry, r)
				}
			}
			live = ok
		}
		if len(live) > 0 {
			// batched before batches: Stats loads batches first, so no
			// snapshot shows more batches than right-hand sides.
			p.batched.Add(int64(len(live)))
			mBatchedRHS.Add(int64(len(live)))
			p.batches.Add(1)
			mBatches.Inc()
		}
		for _, r := range live {
			r.sp.MarkSolveEnd(p.solver.Trace(), sid, k)
			r.done <- nil
		}
		live = retry
	}
	// The batch failed as a whole — a recovered panic, a stall, or the
	// batch deadline — or a member's answer was not finite. Isolate: each
	// such member retries alone on the fully guarded single-RHS ladder
	// under its own context, so one poisoned request cannot take its
	// neighbours down with it.
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

// finite reports whether every value of x is finite.
func finite(x []float64) bool {
	for _, v := range x {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
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
