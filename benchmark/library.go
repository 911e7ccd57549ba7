package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	sptrsv "github.com/sss-lab/blocksptrsv"
)

// A set-up time is the median of at least minSetups and at most maxSetups
// cold set-ups, as many as fit in setupBudget: a fast set-up is repeated
// more, so that its median holds still.
const (
	minSetups   = 9
	maxSetups   = 49
	setupBudget = 500 * time.Millisecond
)

// rhsPerStream is how many distinct right-hand sides each matrix cycles
// through.
const rhsPerStream = 4

// medianSetup returns the set-up time in seconds: setup runs between
// minSetups and maxSetups times, each after an untimed full GC and
// followed by an untimed refSolve over mats that tells how fast the host
// ran meanwhile; the result is the median over the quietest half of the
// runs. setup returns a function that releases what it built.
func medianSetup(mats []input, setup func() (release func(), err error)) (float64, error) {
	var ts, probes []float64
	start := time.Now()
	for r := 0; r < maxSetups && (r < minSetups || time.Since(start) < setupBudget); r++ {
		runtime.GC()
		t0 := time.Now()
		release, err := setup()
		ts = append(ts, time.Since(t0).Seconds())
		if err != nil {
			return 0, err
		}
		release()
		t0 = time.Now()
		for _, in := range mats {
			refSolve(in.l, make([]float64, in.l.Rows), make([]float64, in.l.Rows))
		}
		probes = append(probes, time.Since(t0).Seconds())
	}
	var quiet []float64
	for _, i := range quietest(probes) {
		quiet = append(quiet, ts[i])
	}
	return median(quiet), nil
}

// heapDelta returns the heap, in MB, that build leaves reachable: live
// heap after a full GC, minus the same before. What build makes must stay
// referenced by the caller for the result to mean anything.
func heapDelta(build func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := build(); err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / 1e6, nil
}

// stream is one matrix of a library workload: its solver, the right-hand
// sides it cycles through and the per-call times recorded so far.
type stream struct {
	in    input
	s     *sptrsv.Solver[float64]
	k     int
	b     [][]float64 // rhsPerStream row-major n×k blocks
	x     []float64
	times []float64 // ms per call
	calls int
	// marks holds the number of calls at the end of each window.
	marks []int
	// ref holds, per window, the times of the reference calls made after
	// the library calls; refCalls counts them, col and xref are their
	// right-hand side and solution.
	ref       [][]float64
	refCalls  int
	col, xref []float64
}

func newStream(in input, s *sptrsv.Solver[float64], k int, rng *rand.Rand) *stream {
	n := in.l.Rows
	st := &stream{in: in, s: s, k: k, x: make([]float64, n*k), times: make([]float64, 0, 1<<14)}
	for i := 0; i < rhsPerStream; i++ {
		b := make([]float64, n*k)
		for j := range b {
			b[j] = rng.NormFloat64()
		}
		st.b = append(st.b, b)
	}
	return st
}

// call runs the stream's next solve and records its wall time. Every
// sampleEvery-th call, starting with the first, is checked by the oracle
// after the clock stops; the result reports whether the call was checked
// and, if so, passed.
func (st *stream) call() (checked, ok bool) {
	b := st.b[st.calls%len(st.b)]
	t0 := time.Now()
	if st.k == 1 {
		st.s.Solve(b, st.x)
	} else {
		st.s.SolveBatch(b, st.x, st.k)
	}
	st.times = append(st.times, ms(time.Since(t0)))
	st.calls++
	if (st.calls-1)%sampleEvery != 0 {
		return false, false
	}
	return true, acceptBlock(st.in.l, st.x, b, st.k)
}

// callRef times refSolve on the stream's next right-hand sides, one
// column after another, each copied out of the row-major block first,
// untimed, and returns the time in ms. A row-major k-column serial solve
// was a poor yardstick: when neighbours loaded the host it slowed down
// 2.3×, the batch solver 1.45×.
func (st *stream) callRef() float64 {
	n := st.in.l.Rows
	if st.xref == nil {
		st.col, st.xref = make([]float64, n), make([]float64, n)
	}
	b := st.b[st.refCalls%len(st.b)]
	st.refCalls++
	var took time.Duration
	for j := 0; j < st.k; j++ {
		col := b
		if st.k > 1 {
			for i := range st.col {
				st.col[i] = b[i*st.k+j]
			}
			col = st.col
		}
		t0 := time.Now()
		refSolve(st.in.l, col, st.xref)
		took += time.Since(t0)
	}
	return ms(took)
}

// checkLast checks the stream's final call unless the sample already
// covered it.
func (st *stream) checkLast() (checked, ok bool) {
	if st.calls == 0 || (st.calls-1)%sampleEvery == 0 {
		return false, false
	}
	return true, acceptBlock(st.in.l, st.x, st.b[(st.calls-1)%len(st.b)], st.k)
}

// window returns the times of the calls made in window wi.
func (st *stream) window(wi int) []float64 {
	lo := 0
	if wi > 0 {
		lo = st.marks[wi-1]
	}
	return st.times[lo:st.marks[wi]]
}

// Each measurement window gives the library calls solveShare of its
// length. Then, after refPause, in which the pool's workers stop spinning
// and park, the reference runs alone for the rest. The reference thus
// never competes with the library's goroutines, and nothing the library
// does when idle moves it.
const (
	solveShare = 0.75
	refPause   = 5 * time.Millisecond
)

// runLibrary measures a library workload untraced: set-up time, retained
// plan memory, and the call times of the shipped default solver over
// seconds of round-robin calls, relative to refSolve on the same
// right-hand sides in the same windows.
func runLibrary(w workload, mats []input, seconds float64, seed int64) (*result, error) {
	res := newResult()
	opts := sptrsv.DefaultOptions(0)
	setup := 0.0
	for _, in := range mats {
		t, err := medianSetup([]input{in}, func() (func(), error) {
			_, err := sptrsv.Analyze(in.l, opts)
			return func() {}, err
		})
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", in.name, err)
		}
		setup += t
	}

	solvers := make([]*sptrsv.Solver[float64], len(mats))
	planMB, err := heapDelta(func() error {
		for i, in := range mats {
			s, err := sptrsv.Analyze(in.l, opts)
			if err != nil {
				return fmt.Errorf("analyze %s: %w", in.name, err)
			}
			solvers[i] = s
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	streams := make([]*stream, len(mats))
	for i, in := range mats {
		streams[i] = newStream(in, solvers[i], w.k, rng)
	}
	warmUp(streams)
	runtime.GC()
	nw := windows(seconds)
	wlen := seconds2dur(seconds / float64(nw))
	start := time.Now()
	for wi := 0; wi < nw; wi++ {
		wstart := start.Add(time.Duration(wi) * wlen)
		for end := wstart.Add(time.Duration(solveShare * float64(wlen))); time.Now().Before(end); {
			for _, st := range streams {
				res.observe(st.call())
			}
		}
		time.Sleep(refPause)
		// At least one round, so that a window overrun by a stall still
		// has a reference.
		refs := make([][]float64, len(streams))
		for end, first := wstart.Add(wlen), true; first || time.Now().Before(end); first = false {
			for i, st := range streams {
				refs[i] = append(refs[i], st.callRef())
			}
		}
		for i, st := range streams {
			st.marks = append(st.marks, st.calls)
			st.ref = append(st.ref, refs[i])
		}
	}

	// The reference median of each window, over all matrices, tells how
	// fast the host ran then. In the quietest half of the windows each
	// call time is divided by the reference median of its matrix and
	// window; the quantiles are taken over those calls of a matrix and
	// their geometric mean over matrices. rel_throughput is the time the
	// reference would take for those calls over the time they took.
	refByWindow := make([]float64, nw)
	for wi := range refByWindow {
		var g []float64
		for _, st := range streams {
			g = append(g, median(st.ref[wi]))
		}
		refByWindow[wi] = geomean(g)
	}
	quiet := quietest(refByWindow)
	var rel50, rel75, p50, p90, ref50 []float64
	var total, refTotal float64
	for _, st := range streams {
		res.observe(st.checkLast())
		res.Attempted += int64(st.calls)
		var rel, refAll []float64
		for _, wi := range quiet {
			r, ts := median(st.ref[wi]), st.window(wi)
			for _, t := range ts {
				rel = append(rel, t/r)
			}
			total += sum(ts)
			refTotal += float64(len(ts)) * mean(st.ref[wi])
		}
		for _, rs := range st.ref {
			refAll = append(refAll, rs...)
		}
		rel50 = append(rel50, median(rel))
		rel75 = append(rel75, quantile(rel, 0.75))
		p50 = append(p50, median(st.times))
		p90 = append(p90, quantile(st.times, 0.9))
		ref50 = append(ref50, median(refAll))
	}
	res.set("setup_s", setup, "s")
	res.set("plan_mb", planMB, "MB")
	res.set("rel_latency_p50", geomean(rel50), "ratio")
	res.set("rel_latency_p75", geomean(rel75), "ratio")
	res.set("rel_throughput", refTotal/total, "ratio")
	res.note("latency_ms_p50", geomean(p50), "ms")
	res.note("latency_ms_p90", geomean(p90), "ms")
	res.note("ref_ms_p50", geomean(ref50), "ms")
	return res, nil
}

// warmUp runs a few unrecorded calls per stream so that resident workers
// are awake and lazily sized scratch exists before timing starts.
func warmUp(streams []*stream) {
	for _, st := range streams {
		for i := 0; i < 4; i++ {
			st.call()
		}
		st.times, st.calls = st.times[:0], 0
	}
}
