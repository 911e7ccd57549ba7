package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	sptrsv "github.com/sss-lab/blocksptrsv"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// The traced run reads the layers from outside: it times calls into each
// layer's public functions and reads the recorders the program already
// has (TraceRecorder, SolveStats, Launcher.Launches, the daemon's
// X-Phase-* headers and Stats). Its share of the run's seconds:
const (
	libraryShare = 0.4  // interleaved plain and traced library calls
	refShare     = 0.1  // whole-matrix baseline kernels
	guardShare   = 0.05 // plain Solve calls on the daemon's matrices
	daemonShare  = 0.4  // both daemon phases
)

// batchK is the number of right-hand sides of the batch workload and of
// the batch half of block.batch_gain.
const batchK = 16

// traceCap is the step recorder's ring size; the run folds and resets the
// ring before it could wrap, so no step is lost.
const traceCap = 1 << 16

// The kernels the adaptive selector can pick, and the whole-matrix
// baselines, in report order.
var (
	triKernels  = []kernels.TriKernel{kernels.TriCompletelyParallel, kernels.TriLevelSet, kernels.TriSyncFree, kernels.TriCuSparseLike}
	spmvKernels = []kernels.SpMVKernel{kernels.SpMVScalarCSR, kernels.SpMVVectorCSR, kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR}
	baselines   = []string{"serial", "level-set", "sync-free", "cusparse-like"}
)

// runTraced produces the per-layer metrics of a workload: the library
// layers on the workload's matrices with its number of right-hand sides,
// and the daemon layers on daemonMats, the serve workload's matrices, for
// which the light phase's arrival rate was measured.
func runTraced(w workload, mats, daemonMats []input, seconds float64, seed int64) (*result, error) {
	res := newResult()
	if err := traceLibrary(res, w, mats, seconds, seed); err != nil {
		return nil, err
	}
	if err := traceDaemon(res, daemonMats, seconds, seed); err != nil {
		return nil, err
	}
	return res, nil
}

// lane is one matrix of the traced library run.
type lane struct {
	in     input
	plain  *sptrsv.Solver[float64] // DefaultOptions(0)
	traced *sptrsv.Solver[float64] // the same plus Instrument, Trace and an observed pool
	rec    *sptrsv.TraceRecorder
	steps  int64 // plan steps, recorded once per call
	// single and batch are plain Solve and 16-RHS SolveBatch calls;
	// tracedCall is the workload's call on the traced solver.
	single, batch, tracedCall *stream
}

// stepSums accumulates trace summaries across ring resets.
type stepSums struct {
	tri, spmv time.Duration
	steps     int64
	kernel    map[string]time.Duration
}

func (a *stepSums) fold(rec *sptrsv.TraceRecorder) {
	s := rec.Summarize()
	a.tri += s.TriTime
	a.spmv += s.SpMVTime
	a.steps += int64(s.Steps)
	for k, d := range s.KernelTime {
		a.kernel[k] += d
	}
	rec.Reset()
}

// traceLibrary reports the block, adapt, exec, kernels, levelset and
// sparse layers.
func traceLibrary(res *result, w workload, mats []input, seconds float64, seed int64) error {
	opts := sptrsv.DefaultOptions(0)
	pool := sptrsv.NewSpinPool(opts.Workers)
	defer pool.Close()
	topts := opts
	topts.Pool = pool
	topts.Instrument = true

	rng := rand.New(rand.NewSource(seed))
	lanes := make([]*lane, len(mats))
	for i, in := range mats {
		ln := &lane{in: in, rec: sptrsv.NewTraceRecorder(traceCap)}
		topts.Trace = ln.rec
		var err error
		if ln.plain, err = sptrsv.Analyze(in.l, opts); err != nil {
			return fmt.Errorf("analyze %s: %w", in.name, err)
		}
		if ln.traced, err = sptrsv.Analyze(in.l, topts); err != nil {
			return fmt.Errorf("analyze %s traced: %w", in.name, err)
		}
		ln.single = newStream(in, ln.plain, 1, rng)
		ln.batch = newStream(in, ln.plain, batchK, rng)
		ln.tracedCall = newStream(in, ln.traced, w.k, rng)
		warmUp([]*stream{ln.single, ln.batch, ln.tracedCall})
		crossCheck(res, ln)
		lanes[i] = ln
	}

	sums := stepSums{kernel: map[string]time.Duration{}}
	var launches int64
	deadline := time.Now().Add(seconds2dur(seconds * libraryShare))
	for time.Now().Before(deadline) {
		for _, ln := range lanes {
			res.observe(ln.single.call())
			res.observe(ln.batch.call())
			if ln.rec.Total()+ln.steps > traceCap {
				sums.fold(ln.rec)
			}
			l0 := pool.Launches()
			res.observe(ln.tracedCall.call())
			launches += pool.Launches() - l0
		}
	}

	var calls, nnzWork int64
	var tracedMS float64
	var plainP50, tracedP50, gains []float64
	for _, ln := range lanes {
		for _, st := range []*stream{ln.single, ln.batch, ln.tracedCall} {
			res.observe(st.checkLast())
			res.Attempted += int64(st.calls)
		}
		sums.fold(ln.rec)
		calls += int64(ln.tracedCall.calls)
		nnzWork += int64(ln.tracedCall.calls) * int64(ln.in.l.NNZ()*w.k)
		tracedMS += sum(ln.tracedCall.times)
		s1, sb := median(ln.single.times), median(ln.batch.times)
		gains = append(gains, batchK*s1/sb)
		tracedP50 = append(tracedP50, median(ln.tracedCall.times))
		if w.k == 1 {
			plainP50 = append(plainP50, s1)
		} else {
			plainP50 = append(plainP50, sb)
		}
	}
	perCall := func(d time.Duration) float64 { return ms(d) / float64(calls) }
	solveMS := tracedMS / float64(calls)
	res.set("block.solve_ms", solveMS, "ms")
	res.set("block.tri_ms", perCall(sums.tri), "ms")
	res.set("block.spmv_ms", perCall(sums.spmv), "ms")
	res.set("block.glue_ms", solveMS-perCall(sums.tri)-perCall(sums.spmv), "ms")
	res.set("block.steps", float64(sums.steps)/float64(calls), "count")
	res.set("block.batch_gain", mean(gains), "ratio")
	// Each workload leaves some kernels unpicked, whose time would read 0
	// on every run, so the per-kernel times are notes beside the picks.
	for _, k := range triKernels {
		res.note("block.kernel_ms.tri."+k.String(), perCall(sums.kernel[k.String()]), "ms")
	}
	for _, k := range spmvKernels {
		res.note("block.kernel_ms.spmv."+k.String(), perCall(sums.kernel[k.String()]), "ms")
	}
	res.set("trace_overhead_frac", geomean(tracedP50)/geomean(plainP50)-1, "ratio")
	res.set("kernels.ns_per_nnz", float64((sums.tri+sums.spmv).Nanoseconds())/float64(nnzWork), "ns")

	triPicks := map[kernels.TriKernel]int{}
	spmvPicks := map[kernels.SpMVKernel]int{}
	for _, ln := range lanes {
		for k, n := range ln.plain.TriKernelCounts() {
			triPicks[k] += n
		}
		for k, n := range ln.plain.SpMVKernelCounts() {
			spmvPicks[k] += n
		}
	}
	for _, k := range triKernels {
		res.set("adapt.picks.tri."+k.String(), float64(triPicks[k]), "count")
	}
	for _, k := range spmvKernels {
		res.set("adapt.picks.spmv."+k.String(), float64(spmvPicks[k]), "count")
	}

	res.set("exec.workers", float64(opts.Workers), "count")
	res.set("exec.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	res.set("exec.launches", float64(launches)/float64(calls), "count")
	res.set("exec.launch_us", launchRoundTrip(pool), "us")

	if err := traceBaselines(res, w, lanes, pool, seconds*refShare); err != nil {
		return err
	}
	if err := traceAnalysis(res, mats); err != nil {
		return err
	}
	return nil
}

// crossCheck solves a few single right-hand sides on the traced solver
// and requires the trace's per-kind step sums to equal the solver's own
// instrumentation exactly: both are fed by the same clock reads.
func crossCheck(res *result, ln *lane) {
	const solves = 8
	ln.rec.Reset()
	ln.traced.ResetStats()
	x := make([]float64, ln.in.l.Rows)
	for i := 0; i < solves; i++ {
		ln.traced.Solve(ln.single.b[i%rhsPerStream], x)
	}
	sum, st := ln.rec.Summarize(), ln.traced.Stats()
	if sum.Solves != solves || st.Solves != solves || sum.TriTime != st.TriTime || sum.SpMVTime != st.SpMVTime ||
		sum.TriCalls != st.TriCalls || sum.SpMVCalls != st.SpMVCalls {
		res.problem("%s: trace steps %+v disagree with SolveStats %+v", ln.in.name, sum, st)
	}
	ln.steps = int64(sum.Steps / solves)
	ln.rec.Reset()
	ln.traced.ResetStats()
}

// launchRoundTrip is the median wall time, in µs, of one empty full-width
// ParallelFor on the pool.
func launchRoundTrip(pool *sptrsv.SpinPool) float64 {
	body := func(lo, hi int) {}
	n := pool.Workers()
	for i := 0; i < 64; i++ {
		pool.ParallelFor(n, 1, body)
	}
	ts := make([]float64, 2000)
	for i := range ts {
		t0 := time.Now()
		pool.ParallelFor(n, 1, body)
		ts[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(ts)
}

// traceBaselines times the whole-matrix kernels of internal/kernels on
// the same matrices and pool: kernels.ref_ms.<name> is the mean over
// matrices of the median time of k single-RHS solves, comparable with a
// workload call.
func traceBaselines(res *result, w workload, lanes []*lane, pool *sptrsv.SpinPool, seconds float64) error {
	perPair := seconds2dur(seconds / float64(len(baselines)*len(lanes)))
	for _, name := range baselines {
		var per []float64
		for _, ln := range lanes {
			bs, err := kernels.NewBaseline[float64](name, pool, ln.in.l)
			if err != nil {
				return fmt.Errorf("baseline %s on %s: %w", name, ln.in.name, err)
			}
			b := ln.single.b[0]
			x := make([]float64, len(b))
			bs.Solve(b, x)
			var ts []float64
			start := time.Now()
			for len(ts) < 5 || time.Since(start) < perPair {
				t0 := time.Now()
				bs.Solve(b, x)
				ts = append(ts, ms(time.Since(t0)))
			}
			res.Attempted += int64(len(ts) + 1)
			res.observe(true, acceptBlock(ln.in.l, x, b, 1))
			per = append(per, median(ts)*float64(w.k))
		}
		res.set("kernels.ref_ms."+name, mean(per), "ms")
	}
	return nil
}

// traceAnalysis times the analysis steps Analyze is built from, each on
// the whole matrix: the level sets, the symmetric permutation into level
// order, the CSC conversion and the solvability check. Each metric is the
// sum over matrices of a median of five.
func traceAnalysis(res *result, mats []input) error {
	const reps = 5
	var lv, perm, csc, check float64
	for _, in := range mats {
		var tl, tp, tc, tk []float64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			info := levelset.FromLowerCSR(in.l)
			tl = append(tl, ms(time.Since(t0)))
			order := info.Order()
			t0 = time.Now()
			if _, err := sparse.PermuteSym(in.l, order); err != nil {
				return fmt.Errorf("permute %s: %w", in.name, err)
			}
			tp = append(tp, ms(time.Since(t0)))
			t0 = time.Now()
			in.l.ToCSC()
			tc = append(tc, ms(time.Since(t0)))
			t0 = time.Now()
			if err := sparse.CheckLowerSolvable(in.l); err != nil {
				return fmt.Errorf("check %s: %w", in.name, err)
			}
			tk = append(tk, ms(time.Since(t0)))
		}
		lv += median(tl)
		perm += median(tp)
		csc += median(tc)
		check += median(tk)
	}
	res.set("levelset.ms", lv, "ms")
	res.set("sparse.permute_ms", perm, "ms")
	res.set("sparse.csc_ms", csc, "ms")
	res.set("sparse.check_ms", check, "ms")
	return nil
}

// plainSolveMedians times single-RHS Solve calls of DefaultOptions(0)
// solvers round-robin over mats for seconds, and returns each matrix's
// median time in ms.
func plainSolveMedians(res *result, mats []input, seconds float64, seed int64) ([]float64, error) {
	rng := rand.New(rand.NewSource(seed + 2))
	streams := make([]*stream, len(mats))
	for i, in := range mats {
		s, err := sptrsv.Analyze(in.l, sptrsv.DefaultOptions(0))
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", in.name, err)
		}
		streams[i] = newStream(in, s, 1, rng)
	}
	warmUp(streams)
	deadline := time.Now().Add(seconds2dur(seconds))
	for first := true; first || time.Now().Before(deadline); first = false {
		for _, st := range streams {
			res.observe(st.call())
		}
	}
	p50 := make([]float64, len(streams))
	for i, st := range streams {
		res.observe(st.checkLast())
		res.Attempted += int64(st.calls)
		p50[i] = median(st.times)
	}
	return p50, nil
}

// traceDaemon reports the daemon and HTTP layers, per phase, with mats
// behind a default daemon.
func traceDaemon(res *result, mats []input, seconds float64, seed int64) error {
	single, err := plainSolveMedians(res, mats, seconds*guardShare, seed)
	if err != nil {
		return err
	}
	d, err := newDaemon(mats)
	if err != nil {
		return err
	}
	defer shutdown(d)
	srv, err := newServer(d, mats, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return err
	}
	run := srv.measure(seconds*daemonShare, seed)
	light := run.light
	for _, p := range []struct {
		name string
		p    *phase
	}{{"light", light}, {"sat", run.sat}} {
		phaseMetrics(res, p.name, p.p)
		res.Attempted += int64(len(p.p.exchanges))
		res.Failed += p.p.failed()
		res.Correct = res.Correct && p.p.wrong == 0
	}
	res.set("loadgen.lag_ms_p99", quantile(light.lags, 0.99), "ms")

	// The guard is what the daemon's solve costs beyond the plain library
	// Solve of the same matrix: residual verification, refinement and the
	// stall watchdog of the guarded path.
	solves := make([][]float64, len(mats))
	for _, ex := range light.exchanges {
		if ex.status == http.StatusOK {
			solves[ex.m] = append(solves[ex.m], ms(ex.solve))
		}
	}
	var guard []float64
	for m := range mats {
		if len(solves[m]) > 0 {
			guard = append(guard, median(solves[m])-single[m])
		}
	}
	res.set("daemon.guard_ms", mean(guard), "ms")
	return nil
}

// phaseMetrics reports one daemon phase from the X-Phase-* headers of its
// successful responses and the daemon counters. It also checks that the
// queue, hold and solve phases fit inside the total of every response.
func phaseMetrics(res *result, name string, p *phase) {
	var queue, hold, solve, admit, encode []float64
	for _, ex := range p.exchanges {
		if ex.status != http.StatusOK {
			continue
		}
		if inner := ex.queue + ex.hold + ex.solve; inner > ex.total {
			res.problem("%s phase: queue+hold+solve %v exceeds total %v", name, inner, ex.total)
		}
		queue = append(queue, ms(ex.queue))
		hold = append(hold, ms(ex.hold))
		solve = append(solve, ms(ex.solve))
		admit = append(admit, ms(ex.total-ex.queue-ex.hold-ex.solve))
		encode = append(encode, ms(ex.serve-ex.total))
	}
	pre := "daemon." + name + "."
	res.set(pre+"queue_wait_ms_p50", median(queue), "ms")
	res.set(pre+"queue_wait_ms_p90", quantile(queue, 0.9), "ms")
	res.set(pre+"coalesce_hold_ms_p50", median(hold), "ms")
	res.set(pre+"solve_ms_p50", median(solve), "ms")
	res.set(pre+"admit_ms_p50", median(admit), "ms")
	coalesce := 0.0
	if p.delta.batches > 0 {
		coalesce = float64(p.delta.batched) / float64(p.delta.batches)
	}
	res.set(pre+"coalesce", coalesce, "ratio")
	res.set(pre+"shed", float64(p.delta.shed), "count")
	res.set(pre+"expired", float64(p.delta.expired), "count")
	res.set("http."+name+".encode_ms_p50", median(encode), "ms")
}
