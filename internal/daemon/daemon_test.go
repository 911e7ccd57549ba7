package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// testMatrix is the suite's shared system: big enough that solves are
// real work, small enough that tests stay fast.
func testMatrix() *sparse.CSR[float64] {
	return gen.Layered(2000, 40, 6, 0.1, 901)
}

func newTestDaemon(t *testing.T, cfg Config, l *sparse.CSR[float64]) *Daemon {
	t.Helper()
	return newDaemonWith(t, cfg, l, block.Options{Workers: 2})
}

// newDaemonWith is newTestDaemon with the solver options of matrix "m".
func newDaemonWith(t *testing.T, cfg Config, l *sparse.CSR[float64], opts block.Options) *Daemon {
	t.Helper()
	d := New(cfg)
	if err := d.AddMatrix("m", l, opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return d
}

// checkSolution verifies L·x = b row by row against the original matrix.
func checkSolution(t *testing.T, l *sparse.CSR[float64], b, x []float64) {
	t.Helper()
	for i := 0; i < l.Rows; i++ {
		var sum float64
		for p := l.RowPtr[i]; p < l.RowPtr[i+1]; p++ {
			sum += l.Val[p] * x[l.ColIdx[p]]
		}
		if math.Abs(sum-b[i]) > 1e-9*(1+math.Abs(b[i])) {
			t.Fatalf("row %d: Lx=%g, b=%g", i, sum, b[i])
		}
	}
}

// blockWorkers installs the test seam that parks every worker at the
// head of its next batch solve, and returns (entered, release): receive
// one value per worker arrival, close release to let them all through.
func blockWorkers(d *Daemon, matrix string) (chan struct{}, chan struct{}) {
	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	d.pipes[matrix].beforeSolve = func() {
		entered <- struct{}{}
		<-release
	}
	return entered, release
}

// waitQueued polls until the matrix's queue holds want requests.
func waitQueued(t *testing.T, d *Daemon, matrix string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(d.pipes[matrix].queue) != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", want, len(d.pipes[matrix].queue))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSolveConcurrentCorrect(t *testing.T) {
	l := testMatrix()
	d := newTestDaemon(t, Config{Workers: 2, MaxBatch: 8, Window: 200 * time.Microsecond}, l)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			for iter := 0; iter < 5; iter++ {
				b := gen.RandVec(l.Rows, rng.Int63())
				x, err := d.Solve(context.Background(), "m", b)
				if err != nil {
					t.Errorf("client %d iter %d: %v", c, iter, err)
					return
				}
				checkSolution(t, l, b, x)
			}
		}(c)
	}
	wg.Wait()
}

// TestCoalesce: with one worker parked on an artificially long window, a
// concurrent burst must land in fewer solves than requests — the whole
// point of the admission queue.
func TestCoalesce(t *testing.T) {
	l := testMatrix()
	const burst = 8
	d := newTestDaemon(t, Config{Workers: 1, MaxBatch: burst, MaxQueue: burst, Window: time.Second}, l)
	var wg sync.WaitGroup
	for c := 0; c < burst; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b := gen.RandVec(l.Rows, int64(2000+c))
			x, err := d.Solve(context.Background(), "m", b)
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			checkSolution(t, l, b, x)
		}(c)
	}
	wg.Wait()
	st := d.Stats()[0]
	if st.Batched != burst {
		t.Fatalf("batched = %d, want %d", st.Batched, burst)
	}
	if st.Batches >= burst {
		t.Fatalf("batches = %d for %d requests: nothing coalesced", st.Batches, burst)
	}
	if st.Coalesce <= 1 {
		t.Fatalf("coalesce = %.2f, want > 1", st.Coalesce)
	}
}

// TestOneWorkerGathersAtATime: while one worker holds a batch open, the
// other stays off the queue, so a burst lands in one batch instead of
// being split between two workers each holding a batch of its own (which
// would wait out the one-second window twice over, at two per batch).
func TestOneWorkerGathersAtATime(t *testing.T) {
	l := testMatrix()
	const burst = 4
	d := newTestDaemon(t, Config{Workers: 2, MaxBatch: burst, MaxQueue: burst, Window: time.Second}, l)
	// A first request, alone after no admission at all, is solved at
	// once; the burst then arrives within the window, so it holds.
	if _, err := d.Solve(context.Background(), "m", gen.RandVec(l.Rows, 2100)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < burst; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b := gen.RandVec(l.Rows, int64(2101+c))
			x, err := d.Solve(context.Background(), "m", b)
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			checkSolution(t, l, b, x)
		}(c)
	}
	wg.Wait()
	if st := d.Stats()[0]; st.Batches != 2 || st.Batched != burst+1 {
		t.Fatalf("%d batches carried %d requests; want the lone one, then the burst of %d in one batch", st.Batches, st.Batched, burst)
	}
}

// TestLoneRequestIsNotHeld: a request that arrives alone, more than a
// window after the one before it, is solved without holding its batch
// open, so its coalesce phase stays far below the window. Three requests
// 2·Window apart go through the HTTP handler; each reports its phase in
// X-Phase-Coalesce-Ns.
func TestLoneRequestIsNotHeld(t *testing.T) {
	l := testMatrix()
	const window = 50 * time.Millisecond
	d := newTestDaemon(t, Config{Workers: 1, Window: window}, l)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(2 * window)
		}
		resp, body := postJSON(t, srv.URL+"/solve/m", SolveRequest{B: gen.RandVec(l.Rows, int64(2100+i))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, resp.StatusCode, body)
		}
		hold, err := strconv.ParseInt(resp.Header.Get("X-Phase-Coalesce-Ns"), 10, 64)
		if err != nil {
			t.Fatalf("request %d: X-Phase-Coalesce-Ns = %q: %v", i, resp.Header.Get("X-Phase-Coalesce-Ns"), err)
		}
		if time.Duration(hold) >= window {
			t.Fatalf("request %d was held %v, a lone request after a %v gap; window %v", i, time.Duration(hold), 2*window, window)
		}
	}
	if st := d.Stats()[0]; st.Batches != 3 || st.Batched != 3 {
		t.Fatalf("%d batches of %d right-hand sides, want 3 of 3", st.Batches, st.Batched)
	}
}

// TestHoldWhileRequestIsRead: a lone request that came after a quiet
// spell is still held while another request for its matrix is being
// read, and the two coalesce. Request A's body is half sent when request
// B is admitted and dequeued; B's batch stays open until A's body
// completes, and both answer from one batch of two.
func TestHoldWhileRequestIsRead(t *testing.T) {
	l := testMatrix()
	d := newTestDaemon(t, Config{Workers: 1, MaxBatch: 2, Window: 5 * time.Second}, l)
	p := d.pipes["m"]
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	bodyOf := func(seed int64) []byte {
		data, err := json.Marshal(SolveRequest{B: gen.RandVec(l.Rows, seed)})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	type answer struct {
		resp *http.Response
		err  error
	}
	post := func(body io.Reader, out chan<- answer) {
		resp, err := http.Post(srv.URL+"/solve/m", "application/json", body)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		out <- answer{resp, err}
	}
	a, b := make(chan answer, 1), make(chan answer, 1)
	bodyA := bodyOf(2200)
	pr, pw := io.Pipe()
	go post(pr, a)
	if _, err := pw.Write(bodyA[:len(bodyA)/2]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "request A being read", func() bool { return p.reading.Load() == 1 })
	go post(bytes.NewReader(bodyOf(2201)), b)
	waitFor(t, "request B admitted and dequeued", func() bool { return p.lastAdmit.Load() != 0 && len(p.queue) == 0 })
	if _, err := pw.Write(bodyA[len(bodyA)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	for _, r := range []struct {
		name string
		c    chan answer
	}{{"B", b}, {"A", a}} {
		ans := <-r.c
		if ans.err != nil {
			t.Fatalf("request %s: %v", r.name, ans.err)
		}
		if ans.resp.StatusCode != http.StatusOK || ans.resp.Header.Get("X-Batch") != "2" {
			t.Fatalf("request %s: status %d, batch %q; want 200 from a batch of 2", r.name, ans.resp.StatusCode, ans.resp.Header.Get("X-Batch"))
		}
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadShed: a full bounded queue must shed synchronously with a
// typed *OverloadError carrying a positive Retry-After hint.
func TestOverloadShed(t *testing.T) {
	l := testMatrix()
	d := newTestDaemon(t, Config{Workers: 1, MaxQueue: 1, MaxBatch: 1, Window: -1}, l)
	entered, release := blockWorkers(d, "m")

	b := gen.RandVec(l.Rows, 3000)
	results := make(chan error, 2)
	go func() { _, err := d.Solve(context.Background(), "m", b); results <- err }()
	<-entered // the worker holds request 1; the queue is empty again
	go func() { _, err := d.Solve(context.Background(), "m", b); results <- err }()
	waitQueued(t, d, "m", 1) // request 2 occupies the single slot

	_, err := d.Solve(context.Background(), "m", b)
	var overload *OverloadError
	if !errors.As(err, &overload) {
		t.Fatalf("got %v, want *OverloadError", err)
	}
	if overload.Depth != 1 || overload.RetryAfter <= 0 {
		t.Fatalf("overload hint incomplete: %+v", overload)
	}
	if st := d.Stats()[0]; st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request %d failed: %v", i, err)
		}
	}
	<-entered // second batch parked and released too (release is closed)
}

// TestDeadlineWhileQueued: a request whose deadline passes in the queue
// comes back with its context error and never costs a kernel call, and
// the daemon leaks no goroutines across its lifecycle.
func TestDeadlineWhileQueued(t *testing.T) {
	l := testMatrix()
	d := New(Config{Workers: 1, MaxQueue: 4, MaxBatch: 1, Window: -1})
	if err := d.AddMatrix("m", l, block.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	entered, release := blockWorkers(d, "m")
	// Baseline after AddMatrix: the solver's resident kernel pool is a
	// solver property; what must not leak across the daemon lifecycle
	// are its own workers, watchers, and submitter goroutines.
	before := runtime.NumGoroutine()

	b := gen.RandVec(l.Rows, 3100)
	blockerErr := make(chan error, 1)
	go func() { _, err := d.Solve(context.Background(), "m", b); blockerErr <- err }()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	victimErr := make(chan error, 1)
	go func() { _, err := d.Solve(ctx, "m", b); victimErr <- err }()
	waitQueued(t, d, "m", 1)
	<-ctx.Done() // expire while queued

	close(release)
	if err := <-blockerErr; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if err := <-victimErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("victim got %v, want context.DeadlineExceeded", err)
	}
	st := d.Stats()[0]
	if st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}
	if st.Batched != 1 {
		t.Fatalf("batched = %d, want 1: the expired request reached a solve", st.Batched)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := d.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Workers, watchers, and submitters must all be gone: the goroutine
	// count settles back to where this test started.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShutdownDrains: everything admitted before Shutdown is still
// solved; everything after is refused with ErrDraining.
func TestShutdownDrains(t *testing.T) {
	l := testMatrix()
	d := New(Config{Workers: 1, MaxQueue: 8, MaxBatch: 4, Window: -1})
	if err := d.AddMatrix("m", l, block.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	entered, release := blockWorkers(d, "m")

	const admitted = 5
	b := gen.RandVec(l.Rows, 3200)
	results := make(chan error, admitted)
	go func() { _, err := d.Solve(context.Background(), "m", b); results <- err }()
	<-entered
	for i := 1; i < admitted; i++ {
		go func() { _, err := d.Solve(context.Background(), "m", b); results <- err }()
	}
	waitQueued(t, d, "m", admitted-1)

	done := make(chan error, 1)
	go func() { done <- d.Shutdown(context.Background()) }()
	// Draining flips before the workers finish; new requests bounce.
	for !d.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := d.Solve(context.Background(), "m", b); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-shutdown solve got %v, want ErrDraining", err)
	}

	go func() { // drain the remaining beforeSolve arrivals
		for range entered {
		}
	}()
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(entered)
	for i := 0; i < admitted; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request %d failed after drain: %v", i, err)
		}
	}
	if again := d.Shutdown(context.Background()); again != nil {
		t.Fatalf("second shutdown: %v", again)
	}
}

func TestTypedArgumentErrors(t *testing.T) {
	l := gen.SerialChain(300, 0.2, 910)
	d := newTestDaemon(t, Config{}, l)
	if _, err := d.Solve(context.Background(), "nope", make([]float64, 300)); !errors.Is(err, ErrUnknownMatrix) {
		t.Fatalf("unknown matrix: got %v", err)
	}
	var dim *DimensionError
	if _, err := d.Solve(context.Background(), "m", make([]float64, 7)); !errors.As(err, &dim) {
		t.Fatalf("dimension: got %v", err)
	} else if dim.Want != 300 || dim.Got != 7 {
		t.Fatalf("dimension fields: %+v", dim)
	}
	if err := d.AddMatrix("m", l, block.Options{}); err == nil {
		t.Fatal("duplicate AddMatrix accepted")
	}
	if _, err := d.Rows("nope"); !errors.Is(err, ErrUnknownMatrix) {
		t.Fatalf("rows: got %v", err)
	}
	if n, err := d.Rows("m"); err != nil || n != 300 {
		t.Fatalf("rows = %d, %v", n, err)
	}
}

// TestBatchDeadlineIsolation: one member with an already-expired context
// must not poison its batch — siblings still get their solutions.
func TestBatchDeadlineIsolation(t *testing.T) {
	l := testMatrix()
	const burst = 4
	d := newTestDaemon(t, Config{Workers: 1, MaxBatch: burst, MaxQueue: burst, Window: time.Second}, l)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, burst)
	for c := 0; c < burst; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			if c == 0 {
				ctx = expired
			}
			b := gen.RandVec(l.Rows, int64(3300+c))
			x, err := d.Solve(ctx, "m", b)
			errs[c] = err
			if err == nil {
				checkSolution(t, l, b, x)
			}
		}(c)
	}
	wg.Wait()
	if !errors.Is(errs[0], context.DeadlineExceeded) {
		t.Fatalf("expired member got %v", errs[0])
	}
	for c := 1; c < burst; c++ {
		if errs[c] != nil {
			t.Fatalf("sibling %d failed: %v", c, errs[c])
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MaxQueue <= 0 || cfg.MaxBatch <= 0 || cfg.Window <= 0 || cfg.Workers <= 0 || cfg.DefaultTimeout <= 0 {
		t.Fatalf("zero config not filled: %+v", cfg)
	}
	neg := Config{Window: -1, DefaultTimeout: -1}.withDefaults()
	if neg.Window >= 0 || neg.DefaultTimeout >= 0 {
		t.Fatalf("negative opt-outs overridden: %+v", neg)
	}
}

func TestStatsSorted(t *testing.T) {
	l := gen.SerialChain(100, 0.2, 920)
	d := newTestDaemon(t, Config{}, l) // registers "m"
	for _, name := range []string{"zeta", "alpha"} {
		if err := d.AddMatrix(name, l, block.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if len(st) != 3 {
		t.Fatalf("got %d stats", len(st))
	}
	if !(st[0].Name < st[1].Name && st[1].Name < st[2].Name) {
		t.Fatalf("stats unsorted: %v %v %v", st[0].Name, st[1].Name, st[2].Name)
	}
	if st[0].Rows != 100 || st[0].NNZ != l.NNZ() || st[0].Capacity != 256 {
		t.Fatalf("geometry wrong: %+v", st[0])
	}
}

func TestSolveNilContext(t *testing.T) {
	l := gen.SerialChain(200, 0.2, 930)
	d := newTestDaemon(t, Config{}, l)
	b := gen.RandVec(200, 931)
	x, err := d.Solve(nil, "m", b) //lint:ignore SA1012 nil ctx tolerance is part of the API
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, l, b, x)
}

func BenchmarkDaemonSolve(bm *testing.B) {
	l := testMatrix()
	d := New(Config{Workers: 2, MaxBatch: 16})
	if err := d.AddMatrix("m", l, block.Options{Workers: 2}); err != nil {
		bm.Fatal(err)
	}
	defer func() {
		if err := d.Shutdown(context.Background()); err != nil {
			bm.Error(err)
		}
	}()
	bm.RunParallel(func(pb *testing.PB) {
		b := gen.RandVec(l.Rows, 940)
		for pb.Next() {
			if _, err := d.Solve(context.Background(), "m", b); err != nil {
				bm.Fatal(err)
			}
		}
	})
}
