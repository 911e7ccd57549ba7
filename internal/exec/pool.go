// Package exec provides the parallel execution substrate that stands in for
// the paper's GPUs. The mapping is:
//
//   - a CUDA kernel launch  → Pool.ParallelFor (goroutine fan-out/join; the
//     real scheduling cost plays the role of launch latency),
//   - a warp / thread       → a worker goroutine,
//   - a global barrier      → the join at the end of ParallelFor,
//   - GPU atomics           → sync/atomic CAS loops on float bit patterns,
//   - busy-waiting warps    → SpinWait with runtime.Gosched backoff,
//   - the two GPUs tested   → two Device profiles with different worker
//     counts.
//
// Everything here is deliberately simple and allocation-light: kernels may
// be launched hundreds of thousands of times per benchmark.
package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Launcher is the execution interface every kernel runs on: data-parallel
// launches with a completion barrier (ParallelFor) and persistent-kernel
// launches (Run). Pool implements it with goroutine-per-launch semantics;
// PersistentPool with resident workers fed over channels; SpinPool with
// resident workers driven by an atomic epoch broadcast and a spin barrier
// (the lowest-latency launch path, and the device default).
type Launcher interface {
	// Workers reports the device's worker count.
	Workers() int
	// ParallelFor runs body over [0,n) in grain-sized chunks and blocks
	// until all iterations complete (a kernel launch + global barrier).
	// Chunks must be independent: a body may not wait on work done by
	// another chunk of the same launch (launchers are free to run chunks
	// sequentially on the caller). Cross-worker signalling belongs in Run.
	//
	// A panic in the body does not strand the launcher: the first panic
	// is captured, the launch barrier still completes, and the panic is
	// re-raised on the calling goroutine. Pools with resident workers
	// remain usable afterwards. Which chunks completed is unspecified
	// after a panic. Run-style bodies that busy-wait on each other must
	// additionally use a Guard so surviving workers cannot spin forever
	// on work a panicked worker will never publish.
	ParallelFor(n, grain int, body func(lo, hi int))
	// Run launches one invocation of body per worker and blocks until all
	// return (a persistent kernel). Panics propagate as in ParallelFor.
	Run(body func(worker int))
	// Launches reports the number of launches performed so far.
	Launches() int64
	// ResetLaunches clears the launch counter.
	ResetLaunches()
}

// Pool executes data-parallel loops over a fixed number of workers. The
// zero value is not usable; construct with NewPool.
type Pool struct {
	workers  int
	launches atomic.Int64
}

// NewPool returns a pool with the given worker count. A non-positive count
// selects GOMAXPROCS, the CPU analogue of "use the whole device".
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's worker count (the device's "core count").
func (p *Pool) Workers() int { return p.workers }

// Launches reports how many kernel launches (ParallelFor/Run calls) the
// pool has performed. Tests use it to verify barrier counts; the benchmark
// harness reports it as a launch-overhead proxy.
func (p *Pool) Launches() int64 { return p.launches.Load() }

// ResetLaunches clears the launch counter.
func (p *Pool) ResetLaunches() { p.launches.Store(0) }

// ParallelFor runs body over the index range [0,n) split into chunks of
// size grain, distributed dynamically over the workers. It blocks until all
// iterations complete — this join is the "global barrier" of a GPU kernel.
// A non-positive grain picks a chunk size that gives each worker about
// eight chunks, a reasonable default for irregular work.
//
// A panic in the body is captured, the remaining workers drain normally,
// and the first panic is re-raised on the calling goroutine after the
// join; which chunks ran to completion is then unspecified.
func (p *Pool) ParallelFor(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p.launches.Add(1)
	grain, nw := splitWork(n, grain, p.workers)
	if nw == 1 {
		body(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var pan panicBox
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			defer pan.Recover()
			for {
				lo := int(next.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
	pan.Repanic()
}

// Run launches one goroutine per worker and blocks until all return. It is
// the persistent-kernel analogue used by the sync-free algorithm, where
// workers claim components and busy-wait on dependencies themselves.
// As with ParallelFor, the first panic of any worker body is re-raised on
// the calling goroutine after all workers have returned.
func (p *Pool) Run(body func(worker int)) {
	p.launches.Add(1)
	if p.workers == 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	var pan panicBox
	wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		go func(id int) {
			defer wg.Done()
			defer pan.Recover()
			body(id)
		}(w)
	}
	wg.Wait()
	pan.Repanic()
}

// Sequential reports whether the pool degenerates to serial execution.
func (p *Pool) Sequential() bool { return p.workers == 1 }

// LaunchStyle selects which Launcher implementation a Device constructs —
// the CPU analogue of choosing a kernel-launch mechanism. The zero value
// is LaunchSpin, the lowest-latency path.
type LaunchStyle int

const (
	// LaunchSpin selects SpinPool: resident workers, epoch broadcast,
	// spin barrier. Two atomic ops per worker per launch.
	LaunchSpin LaunchStyle = iota
	// LaunchSpawn selects Pool: a goroutine spawn per worker per launch.
	LaunchSpawn
	// LaunchChannel selects PersistentPool: resident workers fed over
	// per-worker channels with a WaitGroup join.
	LaunchChannel
)

func (s LaunchStyle) String() string {
	switch s {
	case LaunchSpawn:
		return "spawn"
	case LaunchChannel:
		return "channel"
	default:
		return "spin"
	}
}

// ParseLaunchStyle maps the -launcher flag values to a LaunchStyle.
func ParseLaunchStyle(s string) (LaunchStyle, error) {
	switch s {
	case "spin", "":
		return LaunchSpin, nil
	case "spawn":
		return LaunchSpawn, nil
	case "channel":
		return LaunchChannel, nil
	}
	return LaunchSpin, fmt.Errorf("exec: unknown launcher style %q (want spin, spawn or channel)", s)
}

// NewLauncher constructs a launcher of the given style and worker count
// (non-positive selects GOMAXPROCS).
func NewLauncher(style LaunchStyle, workers int) Launcher {
	switch style {
	case LaunchSpawn:
		return NewPool(workers)
	case LaunchChannel:
		return NewPersistentPool(workers)
	default:
		return NewSpinPool(workers)
	}
}

// NewImplicitLauncher is NewLauncher for a pool library code creates on
// a caller's behalf, which no one will Close: once the returned launcher
// is unreachable, a cleanup closes the pool inside it. Every launch keeps
// the handle alive until it returns, so the cleanup never overlaps one.
func NewImplicitLauncher(style LaunchStyle, workers int) Launcher {
	l := &implicitLauncher{NewLauncher(style, workers)}
	runtime.AddCleanup(l, CloseLauncher, l.Launcher)
	return l
}

// implicitLauncher is the handle NewImplicitLauncher returns. The pool
// inside does not reference it (finished launch bodies are dropped), so
// it becomes unreachable with the last solver holding it.
type implicitLauncher struct{ Launcher }

// ParallelFor forwards to the pool. A promoted method would let the
// handle die once the pool is loaded — a caller's final launch is often
// its last use of the handle — and the cleanup could then close the pool
// under the launch; KeepAlive holds it to the end.
func (l *implicitLauncher) ParallelFor(n, grain int, body func(lo, hi int)) {
	l.Launcher.ParallelFor(n, grain, body)
	runtime.KeepAlive(l)
}

// Run forwards to the pool, holding the handle as ParallelFor does.
func (l *implicitLauncher) Run(body func(worker int)) {
	l.Launcher.Run(body)
	runtime.KeepAlive(l)
}

// Device is a named execution profile standing in for one of the paper's
// GPUs (Table 3). Workers plays the role of the CUDA core count; the
// paper's recursion cut-off "20 × core count" maps to 20 × Workers scaled
// by BlockFactor.
type Device struct {
	Name    string
	Workers int
	// BlockFactor scales the recursion cut-off MinBlockRows =
	// BlockFactor × Workers. The paper uses 20 × CUDA cores; with
	// goroutine workers standing in for thousands of CUDA cores the
	// factor is correspondingly larger so block sizes stay comparable.
	BlockFactor int
	// Style selects the launch mechanism; the zero value is LaunchSpin.
	Style LaunchStyle
}

// Pool returns a launcher sized for the device in the device's launch
// style. Spin and channel launchers keep resident workers; callers that
// create launchers transiently should release them with CloseLauncher.
func (d Device) Pool() Launcher { return NewLauncher(d.Style, d.Workers) }

// MinBlockRows is the smallest number of rows worth splitting further on
// this device (§3.4, last paragraph).
func (d Device) MinBlockRows() int {
	f := d.BlockFactor
	if f <= 0 {
		f = 1024
	}
	return f * d.Workers
}

func (d Device) String() string {
	return fmt.Sprintf("%s (%d workers)", d.Name, d.Workers)
}

// DefaultDevices returns the two profiles the benchmark harness uses as
// analogues of the paper's Titan X (smaller) and Titan RTX (larger): the
// second device has 1.5× the workers of the first, mirroring the 3072 →
// 4608 CUDA-core step. Workers model warps in flight (occupancy), not
// physical cores, so both profiles stay distinct even on a single-core
// machine — concurrency without parallelism still exercises the same
// scheduling, contention and locality mechanisms.
func DefaultDevices() [2]Device {
	ncpu := runtime.GOMAXPROCS(0)
	small := (ncpu*2 + 2) / 3 // two thirds, rounded
	if small < 2 {
		small = 2
	}
	large := ncpu
	if large < small+1 {
		large = small + 1
	}
	return [2]Device{
		{Name: "device-S", Workers: small, BlockFactor: 1024},
		{Name: "device-L", Workers: large, BlockFactor: 1024},
	}
}
