package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Spin budgets. The hot phase burns cycles polling an atomic — worth it
// only when another P can make progress meanwhile, so pools on a
// single-P runtime skip straight to yielding. The yield phase hands the P
// to the scheduler between polls; only after the full budget does a worker
// park on a condition variable (one futex round-trip to wake, the cost a
// SpinPool exists to avoid on the hot path).
const (
	spinHot   = 256
	spinYield = 4096
)

// SpinPool is the third Launcher: resident workers driven by an atomic
// epoch broadcast with a sense-reversing completion barrier. Where Pool
// pays a goroutine spawn per worker per launch and PersistentPool a
// channel send/receive plus WaitGroup round-trip, a SpinPool launch costs
// two atomic operations per worker on the fast path: one epoch load that
// observes the broadcast and one fetch-add on the completion counter.
// Workers spin on the epoch word (spin, then runtime.Gosched, and park on
// a condition variable only after a budget), so an idle pool costs no CPU
// once its workers have parked.
//
// Work distribution is static-with-stealing: ParallelFor pre-splits [0,n)
// into one contiguous range per participating worker, each with its own
// cache-line-padded chunk cursor. A worker drains its own range first —
// uncontended fetch-adds on its private cursor — then makes one bounded
// pass over the other shards stealing leftover chunks, which rebalances
// irregular rows without the single global counter all workers hammer in
// the other two pools.
//
// On a runtime with a single P the pool degenerates gracefully: workers
// skip the hot-spin phase (no other P can make progress meanwhile) and
// ParallelFor runs inline on the caller, since fan-out that cannot overlap
// is pure launch overhead — the exact cost this launcher exists to remove.
//
// The launching goroutine participates as worker 0, so NewSpinPool(w)
// spawns w-1 resident goroutines and NewSpinPool(1) spawns none. Like
// PersistentPool, a SpinPool serialises launches (concurrent launches
// queue on an internal mutex), must be Closed when no longer needed, and
// panics if used after Close. Launch bodies must not launch on the same
// pool recursively.
type SpinPool struct {
	workers  int
	launches atomic.Int64

	mu sync.Mutex // one launch at a time

	// Job descriptor, published by plain stores sequenced before the
	// epoch increment; workers read it only after observing the new
	// epoch, which orders the accesses.
	body    func(lo, hi int)
	runBody func(worker int)
	grain   int64
	shards  []spinShard

	epoch     atomic.Uint64 // bumped once per launch (the broadcast)
	remaining atomic.Int64  // resident workers yet to finish the epoch

	// Worker parking, entered only after the spin budget is exhausted.
	// parked counts workers holding or about to wait on parkCond; the
	// launcher broadcasts only when it is non-zero.
	parked   atomic.Int32
	parkMu   sync.Mutex
	parkCond *sync.Cond

	// Launcher parking for the completion barrier: the last worker to
	// decrement remaining sends a token iff waiting is set. Stale tokens
	// from earlier epochs are tolerated — the launcher re-checks
	// remaining after every receive.
	waiting atomic.Int32
	doneCh  chan struct{}

	// pan holds the first panic of the current epoch's bodies. Workers
	// capture into it before decrementing remaining, so by the time the
	// completion barrier releases the launcher the capture is visible;
	// publish re-raises it on the launching goroutine with the epoch and
	// barrier state already restored, leaving the residents reusable.
	pan panicBox

	hot    int  // hot-spin budget, 1 on a single-P runtime
	single bool // single-P runtime: ParallelFor runs inline (see below)
	closed atomic.Bool
}

// spinShard is one worker's range cursor, padded so cursors of adjacent
// workers never share a cache line (the whole point of per-worker shards).
type spinShard struct {
	next atomic.Int64
	end  int64
	_    [48]byte
}

// NewSpinPool starts a spin-barrier pool with the given worker count
// (non-positive selects GOMAXPROCS). The pool must be Closed when no
// longer needed; until then its resident workers stay parked while idle.
func NewSpinPool(workers int) *SpinPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &SpinPool{
		workers: workers,
		doneCh:  make(chan struct{}, 1),
		shards:  make([]spinShard, workers),
		hot:     spinHot,
	}
	p.parkCond = sync.NewCond(&p.parkMu)
	if runtime.GOMAXPROCS(0) == 1 {
		p.hot = 1 // spinning cannot make progress on one P
		p.single = true
	}
	for w := 1; w < workers; w++ {
		//lint:ignore golifecycle worker parks on the epoch barrier, not a channel: Close flips closed, bumps the epoch, and broadcasts parkCond so every worker observes the close and returns; TestSpinPoolCloseIdempotentAndPanicsAfter covers the drain
		go p.worker(w)
	}
	return p
}

// Workers reports the pool's worker count.
func (p *SpinPool) Workers() int { return p.workers }

// Launches reports how many launches the pool has performed.
func (p *SpinPool) Launches() int64 { return p.launches.Load() }

// ResetLaunches clears the launch counter.
func (p *SpinPool) ResetLaunches() { p.launches.Store(0) }

// Sequential reports whether the pool degenerates to serial execution.
func (p *SpinPool) Sequential() bool { return p.workers == 1 }

func (p *SpinPool) worker(id int) {
	labelWorker("spin", id)
	last := uint64(0)
	for {
		last = p.awaitEpoch(last)
		if p.closed.Load() {
			return
		}
		p.runEpoch(id)
		if p.remaining.Add(-1) == 0 && p.waiting.Load() != 0 {
			select {
			case p.doneCh <- struct{}{}:
			default: // a stale token already queued will wake the launcher
			}
		}
	}
}

// awaitEpoch blocks until the epoch moves past last and returns the new
// value: hot spin, then scheduler yields, then park. The epoch re-check
// under parkMu after registering in parked closes the missed-wakeup
// window against the launcher's parked.Load-then-Broadcast.
func (p *SpinPool) awaitEpoch(last uint64) uint64 {
	for i := 0; i < p.hot; i++ {
		if e := p.epoch.Load(); e != last {
			return e
		}
	}
	for i := 0; i < spinYield; i++ {
		if e := p.epoch.Load(); e != last {
			return e
		}
		runtime.Gosched()
	}
	p.parkMu.Lock()
	p.parked.Add(1)
	for {
		if e := p.epoch.Load(); e != last {
			p.parked.Add(-1)
			p.parkMu.Unlock()
			return e
		}
		p.parkCond.Wait()
	}
}

// runEpoch executes this epoch's body on one worker, capturing a panic so
// the worker survives and the barrier decrement that follows still runs.
func (p *SpinPool) runEpoch(id int) {
	defer p.pan.Recover()
	if rb := p.runBody; rb != nil {
		rb(id)
	} else {
		p.runChunks(id)
	}
}

// publish broadcasts the already-written job descriptor to the resident
// workers and, as worker 0, executes the caller's share before waiting
// for the completion barrier. A panic in any body — the caller's share
// included — is re-raised here only after the barrier completes, so the
// epoch machinery is back in its idle state first. Callers hold p.mu and
// set exactly one of p.body and p.runBody; both are nil between launches.
//
//sptrsv:hotpath
func (p *SpinPool) publish(self func()) {
	p.remaining.Store(int64(p.workers - 1))
	p.epoch.Add(1)
	if p.parked.Load() != 0 {
		p.parkMu.Lock()
		p.parkCond.Broadcast()
		p.parkMu.Unlock()
	}
	p.runSelf(self)
	p.waitDone()
	// Drop the finished bodies, on every exit: one may capture the solver
	// holding this pool's implicit launcher, which would then never be
	// released.
	p.body, p.runBody = nil, nil
	p.pan.Repanic()
}

//sptrsv:hotpath
func (p *SpinPool) runSelf(self func()) {
	defer p.pan.Recover()
	self()
}

// waitDone is the launcher half of the completion barrier: spin, yield,
// then block on doneCh. The waiting flag and the remaining counter form a
// Dekker-style store/load pair with the last worker's decrement-then-load,
// so either the worker sees waiting and sends, or the launcher sees the
// counter already at zero.
//
//sptrsv:hotpath
func (p *SpinPool) waitDone() {
	for i := 0; i < p.hot; i++ {
		if p.remaining.Load() == 0 {
			return
		}
	}
	for i := 0; i < spinYield; i++ {
		if p.remaining.Load() == 0 {
			return
		}
		runtime.Gosched()
	}
	p.waiting.Store(1)
	for p.remaining.Load() != 0 {
		<-p.doneCh
	}
	p.waiting.Store(0)
}

// runChunks drains the worker's own shard, then steals leftovers in one
// bounded pass over the other shards.
//
//sptrsv:hotpath
func (p *SpinPool) runChunks(id int) {
	g := p.grain
	body := p.body
	n := len(p.shards)
	for off := 0; off < n; off++ {
		s := &p.shards[(id+off)%n]
		for {
			lo := s.next.Add(g) - g
			if lo >= s.end {
				break
			}
			hi := lo + g
			if hi > s.end {
				hi = s.end
			}
			body(int(lo), int(hi))
		}
	}
}

// ParallelFor runs body over [0,n) in grain-sized chunks on the resident
// workers and blocks until complete. Semantics match Pool.ParallelFor.
//
// On a single-P runtime (GOMAXPROCS was 1 when the pool was built) the
// whole range runs inline on the caller: fan-out cannot overlap on one P,
// so dispatching to resident workers buys nothing and costs one scheduler
// round-trip per worker per launch. This is safe because ParallelFor bodies
// are data-parallel by contract — chunks may not wait on other chunks (the
// sync-free kernels, which do cross-worker busy-waiting, use Run, where
// real dispatch is always performed).
//
//sptrsv:hotpath
func (p *SpinPool) ParallelFor(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.closed.Load() {
		panic("exec: ParallelFor on closed SpinPool")
	}
	p.launches.Add(1)
	if p.single {
		body(0, n)
		return
	}
	grain, nw := splitWork(n, grain, p.workers)
	if nw == 1 {
		body(0, n)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		panic("exec: ParallelFor on closed SpinPool")
	}
	p.body = body
	p.grain = int64(grain)
	per, rem := n/nw, n%nw
	lo := 0
	for w := range p.shards {
		size := 0
		if w < nw {
			size = per
			if w < rem {
				size++
			}
		}
		p.shards[w].next.Store(int64(lo))
		p.shards[w].end = int64(lo + size)
		lo += size
	}
	p.publish(func() { p.runChunks(0) })
}

// Run executes body once per worker (body receives the worker id) and
// blocks until all return — the persistent-kernel entry point used by the
// sync-free algorithm. The calling goroutine runs body(0).
//
//sptrsv:hotpath
func (p *SpinPool) Run(body func(worker int)) {
	if p.closed.Load() {
		panic("exec: Run on closed SpinPool")
	}
	p.launches.Add(1)
	if p.workers == 1 {
		body(0)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		panic("exec: Run on closed SpinPool")
	}
	p.runBody = body
	p.publish(func() { body(0) })
}

// Close stops the resident workers. The pool must not be used afterwards;
// Close is idempotent. A launch already in flight finishes first: workers
// that saw the pool closed mid-epoch would leave it without reaching the
// completion barrier. Workers already parked are woken to observe the
// shutdown, so a closed pool holds no goroutines.
func (p *SpinPool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Swap(true) {
		return
	}
	p.epoch.Add(1)
	p.parkMu.Lock()
	p.parkCond.Broadcast()
	p.parkMu.Unlock()
}

// CloseLauncher releases l's resident workers if its concrete type keeps
// any (SpinPool, PersistentPool); for spawn-per-launch pools it is a
// no-op. Transient launcher users (benchmarks, tuners) call it so
// switching launcher styles never leaks worker goroutines.
func CloseLauncher(l Launcher) {
	if c, ok := l.(interface{ Close() }); ok {
		c.Close()
	}
}
