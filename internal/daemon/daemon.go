// Package daemon is the long-lived solver service over preloaded
// matrices: the paper's multi-RHS amortisation (§5's batch tables)
// applied to live traffic. Concurrent single-RHS requests against the
// same matrix are coalesced by an admission queue into one multi-RHS
// batch solve, so the preprocessing cost and the per-solve scheduling
// overhead are shared across requests exactly as SolveBatch shares them
// across columns.
//
// Robustness model (DESIGN.md §6.10):
//
//   - Admission is bounded. Each matrix has a fixed-depth queue; a
//     request that finds it full is shed immediately with a typed
//     *OverloadError carrying a Retry-After hint — the daemon degrades
//     by rejecting early, never by growing memory without bound.
//   - Deadlines are first-class. Every admitted request carries a
//     context (the configured default is applied when the caller sends
//     none); a request whose deadline expires while queued is dropped at
//     dequeue time with its context error, before it costs a kernel call.
//   - Faults are isolated. A panic inside a batch solve is recovered,
//     the worker's session is discarded (a panic can leave sync-free
//     counters dirty), and the batch is retried per-request on the fully
//     guarded single-RHS ladder (refinement → serial fallback); only the
//     requests that still fail get a typed *SolveFault.
//   - Shutdown drains. After Shutdown begins, new requests are refused
//     with ErrDraining but everything already admitted is solved (or
//     expired) before workers exit.
package daemon

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
	"github.com/sss-lab/blocksptrsv/internal/trace"
)

// Config sizes the daemon. The zero value is usable: New fills every
// field with the documented default.
type Config struct {
	// MaxQueue bounds each matrix's admission queue (default 256).
	// Requests beyond it are shed with *OverloadError.
	MaxQueue int
	// MaxBatch caps how many queued right-hand sides one solve coalesces
	// (default 32).
	MaxBatch int
	// Window is how long a worker holds a batch open for more arrivals
	// after taking what is already queued (default 200µs; negative = no
	// wait, coalesce only what is already queued). It holds only while a
	// second request could still arrive: a batch of one request that
	// came more than Window after the admission before it, while no
	// other request for the matrix is being read, is solved at once. A
	// sub-millisecond hold lasts about 1.1 ms in an idle process, where
	// the timer fires late.
	Window time.Duration
	// Workers is the number of solve workers per matrix (default 2).
	// Each owns a private session, so workers never contend on scratch.
	Workers int
	// DefaultTimeout is the deadline applied to requests that arrive
	// without one (default 5s; negative = none).
	DefaultTimeout time.Duration
	// Obs, when non-nil, is mounted under the HTTP handler for every
	// path the daemon does not claim itself — typically an ObsHandler,
	// giving the service /metrics, /debug/pprof and friends.
	Obs http.Handler
	// FlightRecorder sizes the always-on flight ring of recent request
	// records (default 256). The recorder cannot be disabled — recording
	// is a zero-allocation struct copy — only sized.
	FlightRecorder int
	// SLO is the per-matrix service objective the monitor evaluates over
	// a rolling window (see SLOConfig; the zero value selects defaults).
	SLO SLOConfig
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.Window == 0 {
		c.Window = 200 * time.Microsecond
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	return c
}

// Daemon is a running solver service. Construct with New, register
// matrices with AddMatrix, serve with Handler or call Solve directly,
// stop with Shutdown.
type Daemon struct {
	cfg Config
	// rec is the always-on flight recorder every finished request lands
	// in (see Flight).
	rec *trace.FlightRecorder

	// mu guards pipes, closed, and liveWorkers against Shutdown.
	// Admission holds the read side across its queue send, so
	// close(queue) can never race a send: Shutdown's write lock waits
	// out every in-flight admission.
	mu          sync.RWMutex
	pipes       map[string]*pipeline
	closed      bool
	liveWorkers int
	// drainDone is closed exactly once, when the daemon is draining and
	// the last worker has exited (or by Shutdown itself if no workers
	// were ever live) — it is what Shutdown waits on, with no extra
	// goroutine.
	drainDone chan struct{}

	// snapMu guards the automatic-snapshot rate limiter and the
	// overload-burst detector (flight.go).
	snapMu     sync.Mutex
	lastSnap   time.Time
	burstStart time.Time
	burstN     int
}

// New returns an idle daemon with no matrices.
func New(cfg Config) *Daemon {
	cfg = cfg.withDefaults()
	return &Daemon{
		cfg:       cfg,
		rec:       trace.NewFlightRecorder(cfg.FlightRecorder),
		pipes:     map[string]*pipeline{},
		drainDone: make(chan struct{}),
	}
}

// AddMatrix preprocesses the lower-triangular matrix under the given
// options and starts its worker pool. The daemon always arms the guarded
// ladder: residual verification with refinement and serial fallback, and
// a stall watchdog, unless the caller configured them explicitly.
func (d *Daemon) AddMatrix(name string, l *sparse.CSR[float64], opts block.Options) error {
	if opts.VerifyResidual <= 0 {
		opts.VerifyResidual = 1e-8
	}
	if opts.StallTimeout <= 0 {
		opts.StallTimeout = 30 * time.Second
	}
	s, err := block.Preprocess(l, opts)
	if err != nil {
		return err
	}
	p := &pipeline{
		name:     name,
		solver:   s,
		n:        l.Rows,
		nnz:      l.NNZ(),
		queue:    make(chan *request, d.cfg.MaxQueue),
		window:   d.cfg.Window,
		maxBatch: d.cfg.MaxBatch,
		slo:      newSLOMonitor(name, d.cfg.SLO),
		born:     time.Now(),
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDraining
	}
	if _, dup := d.pipes[name]; dup {
		return fmt.Errorf("daemon: matrix %q already registered", name)
	}
	d.pipes[name] = p
	for i := 0; i < d.cfg.Workers; i++ {
		d.liveWorkers++
		go d.worker(p)
	}
	return nil
}

// Rows reports the system size of a registered matrix.
func (d *Daemon) Rows(matrix string) (int, error) {
	p := d.pipe(matrix)
	if p == nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownMatrix, matrix)
	}
	return p.n, nil
}

// pipe returns a registered matrix's pipeline, or nil.
func (d *Daemon) pipe(matrix string) *pipeline {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.pipes[matrix]
}

// Solve submits one right-hand side for the named matrix and blocks
// until it is solved, shed, expired, or failed — always with a typed
// error (see package doc). b is not retained; the returned x is owned by
// the caller. Solve is safe for any number of concurrent callers; that
// is the point.
func (d *Daemon) Solve(ctx context.Context, matrix string, b []float64) ([]float64, error) {
	return d.SolveSpan(ctx, matrix, b, nil)
}

// maxUnknownName bounds how much of an unregistered matrix name a flight
// record keeps.
const maxUnknownName = 128

// SolveSpan is Solve with a caller-provided request span (the HTTP layer
// passes one seeded from an incoming X-Request-Id; nil starts a fresh
// one). Whatever the outcome, the span is finished exactly once, its
// record lands in the flight ring, and the SLO monitor and automatic
// snapshot triggers observe it.
func (d *Daemon) SolveSpan(ctx context.Context, matrix string, b []float64, sp *trace.Span) ([]float64, error) {
	if sp == nil {
		sp = trace.StartSpan("")
	}
	sp.Matrix = matrix
	x, p, err := d.admit(ctx, matrix, b, sp)
	if p == nil && len(matrix) > maxUnknownName {
		// No registered matrix bounds the name: it is whatever the
		// caller sent (a URL path segment over HTTP).
		sp.Matrix = strings.ToValidUTF8(matrix[:maxUnknownName], "")
	}
	rec := sp.Finish(classifyOutcome(err, sp))
	d.rec.Record(rec)
	d.finishRequest(p, rec)
	return x, err
}

// admit is the admission pipeline: validate, apply the default deadline,
// try the bounded queue, wait for resolution. It returns the pipeline it
// resolved against (nil for unknown matrices) so the caller can attribute
// the outcome.
func (d *Daemon) admit(ctx context.Context, matrix string, b []float64, sp *trace.Span) ([]float64, *pipeline, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return nil, nil, ErrDraining
	}
	p := d.pipes[matrix]
	if p == nil {
		d.mu.RUnlock()
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownMatrix, matrix)
	}
	if len(b) != p.n {
		d.mu.RUnlock()
		return nil, p, &DimensionError{Matrix: matrix, Want: p.n, Got: len(b)}
	}
	var cancel context.CancelFunc
	if _, ok := ctx.Deadline(); !ok && d.cfg.DefaultTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, d.cfg.DefaultTimeout)
	}
	if dl, ok := ctx.Deadline(); ok {
		sp.SetDeadline(dl)
	}
	now := time.Now()
	req := &request{ctx: ctx, b: b, x: make([]float64, p.n), enq: now, gap: p.admitGap(now), done: make(chan error, 1), sp: sp}
	select {
	case p.queue <- req:
		sp.MarkEnqueued()
		mQueueDepth.Add(1)
		mRequests.Inc()
		d.mu.RUnlock()
	default:
		d.mu.RUnlock()
		p.shed.Add(1)
		mShed.Inc()
		if cancel != nil {
			cancel()
		}
		d.noteShed()
		return nil, p, &OverloadError{
			Matrix: matrix, Depth: cap(p.queue), Queued: len(p.queue),
			RetryAfter: p.retryAfter(),
		}
	}
	// Every admitted request is resolved exactly once — by a solve, an
	// expiry drop at dequeue, or the drain after Shutdown — so waiting
	// here unconditionally cannot leak. Waiting on ctx instead would
	// abandon x while a worker still writes into it.
	err := <-req.done
	if cancel != nil {
		cancel()
	}
	if err != nil {
		return nil, p, err
	}
	return req.x, p, nil
}

// Shutdown refuses new work, lets the workers drain everything already
// admitted, and returns when they have exited or ctx expires (the drain
// keeps running in the background in that case). Shutdown is idempotent.
// It waits on drainDone directly — the last exiting worker closes it —
// so no helper goroutine is spawned per call.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		for _, p := range d.pipes {
			close(p.queue)
		}
		// Workers only exit after their queue is closed, which only
		// happens here; liveWorkers == 0 now means none were ever
		// started, so nobody else will close drainDone.
		if d.liveWorkers == 0 {
			close(d.drainDone)
		}
	}
	d.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-d.drainDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// workerExit is every worker's deferred exit bookkeeping: the last
// worker out during a drain completes Shutdown by closing drainDone.
func (d *Daemon) workerExit() {
	d.mu.Lock()
	d.liveWorkers--
	if d.closed && d.liveWorkers == 0 {
		close(d.drainDone)
	}
	d.mu.Unlock()
}

// Draining reports whether Shutdown has begun.
func (d *Daemon) Draining() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.closed
}

// MatrixStats is one matrix's live service counters. Coalesce is the
// mean right-hand sides amortised per batch solve so far — the number
// the daemon exists to push above 1.
type MatrixStats struct {
	Name      string  `json:"name"`
	Rows      int     `json:"rows"`
	NNZ       int     `json:"nnz"`
	Queued    int     `json:"queued"`
	Capacity  int     `json:"capacity"`
	Batches   int64   `json:"batches"`
	Batched   int64   `json:"batched_rhs"`
	Shed      int64   `json:"shed"`
	Expired   int64   `json:"expired"`
	Recovered int64   `json:"recovered"`
	Errors    int64   `json:"errors"`
	Coalesce  float64 `json:"coalesce"`
}

// Stats snapshots every registered matrix, sorted by name.
func (d *Daemon) Stats() []MatrixStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]MatrixStats, 0, len(d.pipes))
	for _, p := range d.pipes {
		st := MatrixStats{
			Name:      p.name,
			Rows:      p.n,
			NNZ:       p.nnz,
			Queued:    len(p.queue),
			Capacity:  cap(p.queue),
			Batches:   p.batches.Load(),
			Batched:   p.batched.Load(),
			Shed:      p.shed.Load(),
			Expired:   p.expired.Load(),
			Recovered: p.recovered.Load(),
			Errors:    p.errors.Load(),
		}
		if st.Batches > 0 {
			st.Coalesce = float64(st.Batched) / float64(st.Batches)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
