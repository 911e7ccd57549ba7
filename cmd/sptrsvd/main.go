// sptrsvd is the solver daemon: a long-lived HTTP/JSON service over
// named, preloaded lower-triangular matrices. Concurrent single-RHS
// requests against the same matrix are coalesced into multi-RHS batch
// solves; admission is bounded with typed backpressure (429 +
// Retry-After), per-request deadlines are enforced while queued, and
// shutdown drains admitted work before exiting.
//
// Serve (default mode):
//
//	sptrsvd -matrix demo=grid:120 -matrix band=banded:20000:16 -listen :8437
//	curl -s localhost:8437/solve/demo -d '{"b":[...]}'
//	curl -s localhost:8437/matrices
//	curl -s localhost:8437/metrics | grep daemon_
//
// Matrix specs: grid:<side>, banded:<n>:<bw>, chain:<n>,
// layered:<n>:<levels>, or a Matrix Market file path (its lower triangle
// is extracted with unit diagonals inserted where missing).
//
// Load generation, reporting service percentiles in the versioned bench
// JSON schema (suite "sptrsv-load", p50/p99/p999):
//
//	sptrsvd -loadgen -url http://localhost:8437 -name demo -c 16 -d 10s -json load.json
//
// Smoke (in-process, for `make daemon-smoke`): starts a one-worker
// daemon with a step recorder on a loopback port, runs a short burst,
// and fails unless coalescing actually happened, no request errored, and
// /debug/requests nests kernel steps inside the requests' solve phases:
//
//	sptrsvd -smoke
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	sptrsv "github.com/sss-lab/blocksptrsv"
	"github.com/sss-lab/blocksptrsv/internal/bench"
	"github.com/sss-lab/blocksptrsv/internal/daemon"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/plancache"
)

type matrixSpec struct{ name, spec string }

func main() {
	var specs []matrixSpec
	flag.Func("matrix", "register a matrix as name=spec (repeatable); specs: grid:<side>, banded:<n>:<bw>, chain:<n>, layered:<n>:<levels>, or a .mtx path", func(v string) error {
		name, spec, ok := strings.Cut(v, "=")
		if !ok || name == "" || spec == "" {
			return fmt.Errorf("want name=spec, got %q", v)
		}
		specs = append(specs, matrixSpec{name, spec})
		return nil
	})
	var (
		listen       = flag.String("listen", ":8437", "serve: listen address")
		solveWorkers = flag.Int("solve-workers", 2, "serve: solve workers per matrix (each owns a session)")
		workers      = flag.Int("workers", 0, "serve: kernel worker count per solve (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 256, "serve: admission queue depth per matrix")
		maxBatch     = flag.Int("batch", 32, "serve: max right-hand sides coalesced into one solve")
		window       = flag.Duration("window", 200*time.Microsecond, "serve: how long a batch is held open for more arrivals")
		timeout      = flag.Duration("timeout", 5*time.Second, "serve: default per-request deadline when the client sends none")
		drain        = flag.Duration("drain", 30*time.Second, "serve: shutdown drain budget")
		cacheDir     = flag.String("cache-dir", "", "serve/smoke: plan-cache directory; a restart with the same matrices loads serialized analysis instead of redoing it")
		flight       = flag.Int("flight", 0, "serve: flight-recorder ring size in requests (0 = default 256)")
		traceSteps   = flag.Int("trace", 0, "serve: retain the last N solve steps in a step recorder: served at /trace, and nested in each request's solve phase at /debug/requests?format=chrome (0 = off)")

		sloLatency = flag.Duration("slo-latency", 0, "serve: SLO latency threshold per request (0 = default 50ms)")
		sloTarget  = flag.Float64("slo-target", 0, "serve: fraction of requests that must beat -slo-latency (0 = default 0.99)")
		sloBudget  = flag.Float64("slo-error-budget", 0, "serve: tolerated failed-request fraction (0 = default 0.01)")
		sloWindow  = flag.Duration("slo-window", 0, "serve: rolling window the SLO monitor evaluates over (0 = default 60s)")

		loadgen   = flag.Bool("loadgen", false, "load-generator mode: hammer a running daemon and report latency percentiles")
		url       = flag.String("url", "http://127.0.0.1:8437", "loadgen: daemon base URL")
		name      = flag.String("name", "", "loadgen: matrix name to hammer")
		conc      = flag.Int("c", 8, "loadgen/smoke: concurrent closed-loop clients")
		dur       = flag.Duration("d", 2*time.Second, "loadgen/smoke: run duration")
		timeoutMS = flag.Int("timeout-ms", 0, "loadgen: per-request deadline sent to the daemon (0 = server default)")
		seed      = flag.Int64("seed", 1, "loadgen: right-hand-side seed")
		jsonOut   = flag.String("json", "", "loadgen: write the bench-schema latency report here")

		smoke = flag.Bool("smoke", false, "smoke mode: in-process daemon + burst; fails without coalescing or on any error response")
	)
	flag.Parse()

	switch {
	case *smoke:
		fatalIf(runSmoke(*conc, *dur, *cacheDir))
	case *loadgen:
		if *name == "" {
			fmt.Fprintln(os.Stderr, "sptrsvd: -loadgen needs -name <matrix>")
			os.Exit(2)
		}
		fatalIf(runLoadgen(*url, *name, *conc, *dur, *timeoutMS, *seed, *jsonOut))
	default:
		if len(specs) == 0 {
			flag.Usage()
			os.Exit(2)
		}
		slo := daemon.SLOConfig{Latency: *sloLatency, Target: *sloTarget, ErrorBudget: *sloBudget, Window: *sloWindow}
		fatalIf(runServe(specs, *listen, *cacheDir, *solveWorkers, *workers, *queue, *maxBatch, *flight, *traceSteps, *window, *timeout, *drain, slo))
	}
}

// buildMatrix materialises a spec into a lower-triangular system.
func buildMatrix(spec string) (*sptrsv.Matrix[float64], error) {
	kind, rest, _ := strings.Cut(spec, ":")
	switch kind {
	case "grid":
		side, err := strconv.Atoi(rest)
		if err != nil || side < 2 {
			return nil, fmt.Errorf("grid:<side> with side >= 2, got %q", spec)
		}
		return gen.GridLaplacian5(side, side, 1), nil
	case "banded":
		ns, bws, ok := strings.Cut(rest, ":")
		n, err1 := strconv.Atoi(ns)
		bw, err2 := strconv.Atoi(bws)
		if !ok || err1 != nil || err2 != nil || n < 1 || bw < 1 {
			return nil, fmt.Errorf("banded:<n>:<bw>, got %q", spec)
		}
		return gen.Banded(n, bw, 0.3, 1), nil
	case "chain":
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("chain:<n>, got %q", spec)
		}
		return gen.SerialChain(n, 0.1, 1), nil
	case "layered":
		ns, lvls, ok := strings.Cut(rest, ":")
		n, err1 := strconv.Atoi(ns)
		levels, err2 := strconv.Atoi(lvls)
		if !ok || err1 != nil || err2 != nil || n < 1 || levels < 1 {
			return nil, fmt.Errorf("layered:<n>:<levels>, got %q", spec)
		}
		return gen.Layered(n, levels, 6, 0.1, 1), nil
	default:
		m, err := sptrsv.ReadMatrixMarketFile[float64](spec)
		if err != nil {
			return nil, err
		}
		return sptrsv.LowerTriangle(m, true)
	}
}

func runServe(specs []matrixSpec, listen, cacheDir string, solveWorkers, workers, queue, maxBatch, flight, traceSteps int, window, timeout, drain time.Duration, slo daemon.SLOConfig) error {
	cache, err := openPlanCache(cacheDir)
	if err != nil {
		return err
	}
	// One step recorder shared by every matrix: /trace shows its kernel
	// steps, and the chrome form of /debug/requests nests each request's
	// steps inside its solve phase, on the same timeline.
	var steps *sptrsv.TraceRecorder
	if traceSteps > 0 {
		steps = sptrsv.NewTraceRecorder(traceSteps)
	}
	d := daemon.New(daemon.Config{
		MaxQueue:       queue,
		MaxBatch:       maxBatch,
		Window:         window,
		Workers:        solveWorkers,
		DefaultTimeout: timeout,
		PlanCache:      cache,
		FlightRecorder: flight,
		SLO:            slo,
		Obs:            sptrsv.ObsHandler(sptrsv.ObsOptions{Trace: steps, Index: daemon.IndexLines()}),
	})
	for _, ms := range specs {
		l, err := buildMatrix(ms.spec)
		if err != nil {
			return fmt.Errorf("matrix %s: %w", ms.name, err)
		}
		opts := sptrsv.DefaultOptions(workers)
		opts.Trace = steps
		if err := d.AddMatrix(ms.name, l, opts); err != nil {
			return fmt.Errorf("matrix %s: %w", ms.name, err)
		}
		fmt.Printf("loaded %s: %d rows, %d nonzeros (%s)\n", ms.name, l.Rows, l.NNZ(), ms.spec)
	}

	// SIGQUIT dumps the flight recorder instead of killing the process:
	// the always-on ring plus any fault snapshots, to stderr, while the
	// daemon keeps serving. (Go's default SIGQUIT stack dump is replaced;
	// kill -ABRT still produces one.)
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	go func() {
		for range quitc {
			if err := d.Flight().WriteFlight(os.Stderr); err != nil {
				fmt.Fprintf(os.Stderr, "sptrsvd: flight dump failed: %v\n", err)
			}
		}
	}()

	srv := &http.Server{Addr: listen, Handler: d.Handler()}
	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("sptrsvd serving on %s (%d matrices, %d solve workers, queue %d, batch %d, window %v)\n",
		listen, len(specs), solveWorkers, queue, maxBatch, window)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	fmt.Printf("draining (budget %v)...\n", drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	// Daemon first: refusing new work and resolving queued requests is
	// what unblocks the handlers the server shutdown waits for.
	if err := d.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "sptrsvd: drain incomplete: %v\n", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	fmt.Println("drained, bye")
	return nil
}

func runLoadgen(url, name string, conc int, dur time.Duration, timeoutMS int, seed int64, jsonOut string) error {
	res, err := daemon.RunLoad(daemon.LoadConfig{
		URL: url, Matrix: name, Concurrency: conc, Duration: dur,
		TimeoutMS: timeoutMS, Seed: seed,
	})
	if err != nil {
		return err
	}
	lr := bench.NewLatencyResult(res.Matrix, res.Rows, conc, res.Elapsed,
		res.Requests, res.OK, res.Shed, res.Deadlined, res.Failed, res.Coalesce, res.Latencies,
		bench.PhaseSamples{QueueWait: res.QueueWaits, Coalesce: res.Coalesces, Solve: res.Solves})
	printLoad(res, lr)
	if jsonOut != "" {
		rep := bench.LoadReport(conc, []bench.LatencyResult{lr})
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return nil
}

func printLoad(res *daemon.LoadResult, lr bench.LatencyResult) {
	fmt.Printf("%s: %d requests in %v (%.0f req/s, %d clients)\n",
		res.Matrix, res.Requests, res.Elapsed.Round(time.Millisecond),
		float64(res.Requests)/res.Elapsed.Seconds(), lr.Concurrency)
	fmt.Printf("  ok %d  shed %d  deadlined %d  failed %d\n", res.OK, res.Shed, res.Deadlined, res.Failed)
	fmt.Printf("  coalesce %.2f RHS/batch\n", res.Coalesce)
	fmt.Printf("  latency p50 %v  p99 %v  p999 %v  max %v\n",
		time.Duration(lr.P50Ns), time.Duration(lr.P99Ns), time.Duration(lr.P999Ns), time.Duration(lr.MaxNs))
	if len(res.Solves) > 0 {
		fmt.Printf("  phases p50/p99: queue-wait %v/%v  coalesce %v/%v  solve %v/%v\n",
			time.Duration(lr.QueueWaitP50Ns), time.Duration(lr.QueueWaitP99Ns),
			time.Duration(lr.CoalesceP50Ns), time.Duration(lr.CoalesceP99Ns),
			time.Duration(lr.SolveP50Ns), time.Duration(lr.SolveP99Ns))
	}
}

// runSmoke is the CI gate: a one-worker in-process daemon must coalesce
// a concurrent burst (factor > 1) and answer every request without a
// single error response, then drain cleanly.
func runSmoke(conc int, dur time.Duration, cacheDir string) error {
	cache, err := openPlanCache(cacheDir)
	if err != nil {
		return err
	}
	l := gen.GridLaplacian5(100, 100, 1)
	d := daemon.New(daemon.Config{
		Workers:   1, // one worker makes a concurrent burst queue, hence coalesce
		MaxQueue:  1024,
		MaxBatch:  32,
		Window:    500 * time.Microsecond,
		Obs:       sptrsv.ObsHandler(sptrsv.ObsOptions{}),
		PlanCache: cache,
	})
	opts := sptrsv.DefaultOptions(0)
	opts.Trace = sptrsv.NewTraceRecorder(0)
	if err := d.AddMatrix("smoke", l, opts); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: d.Handler()}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "sptrsvd: smoke server: %v\n", err)
		}
	}()
	res, err := daemon.RunLoad(daemon.LoadConfig{
		URL: "http://" + ln.Addr().String(), Matrix: "smoke",
		Concurrency: conc, Duration: dur, Seed: 1,
	})
	if err != nil {
		return err
	}
	lr := bench.NewLatencyResult(res.Matrix, res.Rows, conc, res.Elapsed,
		res.Requests, res.OK, res.Shed, res.Deadlined, res.Failed, res.Coalesce, res.Latencies,
		bench.PhaseSamples{QueueWait: res.QueueWaits, Coalesce: res.Coalesces, Solve: res.Solves})
	printLoad(res, lr)
	if err := smokeDebugChecks("http://" + ln.Addr().String()); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		return fmt.Errorf("smoke: drain failed: %w", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("smoke: http shutdown: %w", err)
	}
	if res.OK == 0 {
		return errors.New("smoke: no request succeeded")
	}
	if n := res.Shed + res.Deadlined + res.Failed; n != 0 {
		return fmt.Errorf("smoke: %d error responses (shed %d, deadlined %d, failed %d)", n, res.Shed, res.Deadlined, res.Failed)
	}
	if res.Coalesce <= 1 {
		return fmt.Errorf("smoke: coalesce factor %.2f, want > 1 — the admission queue never batched", res.Coalesce)
	}
	fmt.Println("daemon smoke OK")
	return nil
}

// smokeDebugChecks asserts the observability surface the burst should
// have populated: /debug/requests serves a well-formed Chrome trace that
// nests at least one kernel step inside a request's solve phase, and
// /debug/flight holds a non-empty ring whose phase times sum to no more
// than each request's total.
func smokeDebugChecks(base string) error {
	resp, err := http.Get(base + "/debug/requests?format=chrome")
	if err != nil {
		return fmt.Errorf("smoke: /debug/requests: %w", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name, Cat string
			TS, Dur   float64
			TID       int64
		} `json:"traceEvents"`
	}
	err = json.NewDecoder(resp.Body).Decode(&trace)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("smoke: /debug/requests is not valid Chrome trace JSON: %w", err)
	}
	solves := map[int64][2]float64{} // request row -> solve phase [start, end] in µs
	for _, ev := range trace.TraceEvents {
		if ev.Cat == "phase" && ev.Name == "solve" {
			solves[ev.TID] = [2]float64{ev.TS, ev.TS + ev.Dur}
		}
	}
	// 1 ns of slack absorbs the rounding of the µs floats.
	nested := 0
	for _, ev := range trace.TraceEvents {
		if ph, ok := solves[ev.TID]; ok && (ev.Cat == "tri" || ev.Cat == "spmv") && ev.TS >= ph[0] && ev.TS+ev.Dur <= ph[1]+1e-3 {
			nested++
		}
	}
	if nested == 0 {
		return errors.New("smoke: /debug/requests nests no step event inside a solve phase after the burst")
	}

	resp, err = http.Get(base + "/debug/flight?format=json")
	if err != nil {
		return fmt.Errorf("smoke: /debug/flight: %w", err)
	}
	var flight struct {
		Total   uint64 `json:"total"`
		Records []struct {
			ID          string `json:"id"`
			Outcome     string `json:"outcome"`
			DecodeNs    int64  `json:"decode_ns"`
			AdmitNs     int64  `json:"admit_ns"`
			QueueWaitNs int64  `json:"queue_wait_ns"`
			CoalesceNs  int64  `json:"coalesce_ns"`
			SolveNs     int64  `json:"solve_ns"`
			TotalNs     int64  `json:"total_ns"`
		} `json:"records"`
	}
	err = json.NewDecoder(resp.Body).Decode(&flight)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("smoke: /debug/flight is not valid JSON: %w", err)
	}
	if len(flight.Records) == 0 {
		return errors.New("smoke: flight ring is empty after the burst")
	}
	for _, rec := range flight.Records {
		if sum := rec.DecodeNs + rec.AdmitNs + rec.QueueWaitNs + rec.CoalesceNs + rec.SolveNs; sum > rec.TotalNs {
			return fmt.Errorf("smoke: request %s phases sum to %dns > total %dns", rec.ID, sum, rec.TotalNs)
		}
	}
	fmt.Printf("  flight ring: %d records (%d total), span tree: %d trace events, %d steps nested in solve phases\n",
		len(flight.Records), flight.Total, len(trace.TraceEvents), nested)
	return nil
}

// openPlanCache opens the on-disk plan cache when a directory was
// given; an empty flag means no caching, which is the zero value here.
func openPlanCache(dir string) (*plancache.Cache, error) {
	if dir == "" {
		return nil, nil
	}
	c, err := plancache.Open(plancache.Config{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("plan cache %s: %w", dir, err)
	}
	return c, nil
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sptrsvd:", err)
		os.Exit(1)
	}
}
