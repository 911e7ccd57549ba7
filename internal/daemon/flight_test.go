package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/trace"
)

// Tests for the daemon's side of the request-observability layer: flight
// ring population and outcome accounting, phase attribution arithmetic,
// the request-id plumbing through HTTP, the verbose health view, and the
// SLO monitor's degradation thresholds.

// lastRecord returns the newest flight record for the given request id.
func lastRecord(t *testing.T, d *Daemon, id string) trace.Record {
	t.Helper()
	recs := d.Flight().Records()
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].ID == id {
			return recs[i]
		}
	}
	t.Fatalf("request %s not in flight ring (%d records)", id, len(recs))
	return trace.Record{}
}

// TestFlightRingPhaseAttribution: every Solve leaves exactly one record
// in the flight ring, its phase durations sum to the end-to-end latency
// within the admit+respond overhead of a direct in-process call, and —
// with a step recorder attached — it links that recorder, where its
// solve id resolves to actual step records.
func TestFlightRingPhaseAttribution(t *testing.T) {
	l := testMatrix()
	steps := trace.NewStepRecorder(4096)
	d := newDaemonWith(t, Config{Workers: 2, MaxBatch: 8, Window: 200 * time.Microsecond}, l, block.Options{Workers: 2, Trace: steps})

	const n = 6
	ids := make([]string, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sp := trace.StartSpan("")
			ids[c] = sp.ID
			b := gen.RandVec(l.Rows, int64(5000+c))
			if _, err := d.SolveSpan(context.Background(), "m", b, sp); err != nil {
				t.Errorf("request %d: %v", c, err)
			}
		}(c)
	}
	wg.Wait()

	if got := d.Flight().Total(); got != n {
		t.Fatalf("flight ring recorded %d requests, want %d", got, n)
	}
	stepsBySolve := map[int64]int{}
	for _, st := range steps.Steps() {
		stepsBySolve[st.Solve]++
	}
	for c, id := range ids {
		rec := lastRecord(t, d, id)
		if rec.Outcome != trace.OutcomeOK {
			t.Fatalf("request %d outcome = %v, want ok", c, rec.Outcome)
		}
		if rec.Matrix != "m" || rec.Batch < 1 || rec.Solve <= 0 || rec.Total <= 0 {
			t.Fatalf("request %d record incomplete: %+v", c, rec)
		}
		if rec.SolveID == 0 || rec.Steps != steps {
			t.Fatalf("request %d links solve %d in recorder %p, want a solve in %p", c, rec.SolveID, rec.Steps, steps)
		}
		if stepsBySolve[rec.SolveID] == 0 {
			t.Fatalf("request %d solve id %d has no step records in the trace ring", c, rec.SolveID)
		}
		sum := rec.QueueWait + rec.Coalesce + rec.Solve
		if sum > rec.Total {
			t.Fatalf("request %d phases sum to %v > total %v", c, sum, rec.Total)
		}
		// The remainder is admit + respond: for a direct in-process call
		// both are bookkeeping, far below the phase durations themselves.
		if slack := rec.Total - sum; slack > 100*time.Millisecond {
			t.Fatalf("request %d: %v of the total is unattributed (phases %v of %v)", c, slack, sum, rec.Total)
		}
	}
}

// TestExpiredRequestInFlightRing: a request dropped at dequeue because
// its deadline passed while queued must land in the flight ring with
// outcome "expired" — distinguishable from a deadline that fired during
// a solve — not vanish.
func TestExpiredRequestInFlightRing(t *testing.T) {
	l := testMatrix()
	d := newTestDaemon(t, Config{Workers: 1, MaxQueue: 4, MaxBatch: 1, Window: -1}, l)
	entered, release := blockWorkers(d, "m")

	b := gen.RandVec(l.Rows, 5100)
	blockerErr := make(chan error, 1)
	go func() { _, err := d.Solve(context.Background(), "m", b); blockerErr <- err }()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	victim := trace.StartSpan("")
	victimErr := make(chan error, 1)
	go func() { _, err := d.SolveSpan(ctx, "m", b, victim); victimErr <- err }()
	waitQueued(t, d, "m", 1)
	<-ctx.Done()

	close(release)
	if err := <-blockerErr; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if err := <-victimErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("victim got %v, want context.DeadlineExceeded", err)
	}

	rec := lastRecord(t, d, victim.ID)
	if rec.Outcome != trace.OutcomeExpired {
		t.Fatalf("expired request recorded as %v, want expired", rec.Outcome)
	}
	if rec.Solve != 0 || rec.Batch != 0 {
		t.Fatalf("expired request shows solve work: %+v", rec)
	}
	if !rec.HasDeadline {
		t.Fatal("expired request lost its deadline slack")
	}
	<-entered // second batch parked and released too (release is closed)
}

// faultyPool panics at the start of its next armed launches, first
// calling onPanic: a kernel fault the test can aim at one solve.
type faultyPool struct {
	exec.Launcher
	armed   atomic.Int32
	onPanic func()
}

func (f *faultyPool) ParallelFor(n, grain int, body func(lo, hi int)) {
	if f.armed.Add(-1) >= 0 {
		f.onPanic()
		panic("injected launch fault")
	}
	f.Launcher.ParallelFor(n, grain, body)
}

// TestSoloRetriesLinkTheirOwnSolve: when a batch fails and its members
// retry alone, each flight record names the solve that member ran
// itself — the retry that panicked included — or none when its context
// ended first, and reports a batch of one.
func TestSoloRetriesLinkTheirOwnSolve(t *testing.T) {
	l := testMatrix()
	d := newTestDaemon(t, Config{Workers: 1, MaxBatch: 3, Window: -1}, l)
	pool := &faultyPool{Launcher: exec.NewPool(2)}
	// Level-set launches once per level; the default plan for this
	// matrix is one serial leaf, which never launches.
	opts := block.Options{Pool: pool, Trace: trace.NewStepRecorder(4096), ForceTri: kernels.TriLevelSet}
	if err := d.AddMatrix("r", l, opts); err != nil {
		t.Fatal(err)
	}
	// The first batch parks the worker until A, B and C are queued; the
	// second, [A B C], arms two faults: the batch solve and A's retry.
	// The first fault cancels C, so C's retry never reaches a kernel.
	ctxC, cancelC := context.WithCancel(context.Background())
	defer cancelC()
	pool.onPanic = cancelC
	entered, release := make(chan struct{}), make(chan struct{})
	batches := 0
	d.pipes["r"].beforeSolve = func() {
		if batches++; batches == 1 {
			entered <- struct{}{}
			<-release
		} else if batches == 2 {
			pool.armed.Store(2)
		}
	}
	b := gen.RandVec(l.Rows, 5150)
	errs := make(chan error, 4)
	go func() { _, err := d.Solve(context.Background(), "r", b); errs <- err }()
	<-entered
	for i, ctx := range []context.Context{context.Background(), context.Background(), ctxC} {
		sp := trace.StartSpan("retry-" + string(rune('a'+i)))
		go func() { _, err := d.SolveSpan(ctx, "r", b, sp); errs <- err }()
		waitQueued(t, d, "r", i+1)
	}
	close(release)
	for range 4 {
		<-errs
	}

	a, bb, c := lastRecord(t, d, "retry-a"), lastRecord(t, d, "retry-b"), lastRecord(t, d, "retry-c")
	if a.Outcome != trace.OutcomeFault || bb.Outcome != trace.OutcomeOK || c.Outcome != trace.OutcomeCanceled {
		t.Fatalf("outcomes a=%v b=%v c=%v, want fault, ok, canceled", a.Outcome, bb.Outcome, c.Outcome)
	}
	for _, rec := range []trace.Record{a, bb, c} {
		if rec.Batch != 1 {
			t.Errorf("%s: batch %d after degrading to a solo retry, want 1", rec.ID, rec.Batch)
		}
	}
	if a.SolveID == 0 || bb.SolveID <= a.SolveID {
		t.Errorf("solve ids a=%d b=%d: each retry must link its own, later, solve", a.SolveID, bb.SolveID)
	}
	if c.SolveID != 0 {
		t.Errorf("c ran no solve but links solve %d (b ran %d)", c.SolveID, bb.SolveID)
	}
}

// TestStatsSnapshotUnderConcurrentLoad hammers every read-side snapshot
// — Stats, SLOStatuses, Health, the flight ring, and both flight exports
// — while solves are in flight. Failures here are data races (caught by
// `make race`) or snapshot inconsistencies.
func TestStatsSnapshotUnderConcurrentLoad(t *testing.T) {
	l := testMatrix()
	d := newTestDaemon(t, Config{Workers: 2, MaxBatch: 8, Window: 100 * time.Microsecond}, l)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, st := range d.Stats() {
				if st.Queued < 0 || st.Queued > st.Capacity {
					t.Errorf("queue snapshot out of bounds: %+v", st)
					return
				}
				if st.Batched < st.Batches {
					t.Errorf("batched %d < batches %d", st.Batched, st.Batches)
					return
				}
			}
			for _, st := range d.SLOStatuses() {
				if st.Slow+st.Failed > st.Requests {
					t.Errorf("SLO window inconsistent: %+v", st)
					return
				}
			}
			if h := d.Health(); h != "ok" && h != "degraded" && h != "critical" {
				t.Errorf("health = %q mid-load", h)
				return
			}
			var prev int64
			for _, rec := range d.Flight().Records() {
				if rec.Seq <= prev && prev != 0 {
					t.Errorf("flight ring out of order: seq %d after %d", rec.Seq, prev)
					return
				}
				prev = rec.Seq
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				b := gen.RandVec(l.Rows, int64(5200+10*c+iter))
				if _, err := d.Solve(context.Background(), "m", b); err != nil {
					t.Errorf("client %d iter %d: %v", c, iter, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if got, want := d.Flight().Total(), int64(24); got != want {
		t.Fatalf("flight ring total = %d, want %d", got, want)
	}
}

// TestHTTPRequestIDAndPhaseHeaders: the handler honors an incoming
// X-Request-Id, echoes it, attributes phases in response headers that
// sum to no more than the reported total, and the same id is findable in
// the flight ring afterwards.
func TestHTTPRequestIDAndPhaseHeaders(t *testing.T) {
	l := gen.Layered(800, 20, 5, 0.1, 5300)
	d := newTestDaemon(t, Config{Workers: 2}, l)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	body, err := json.Marshal(SolveRequest{B: gen.RandVec(l.Rows, 5301)})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/solve/m", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "client-chosen-id-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "client-chosen-id-1" {
		t.Fatalf("X-Request-Id = %q, want the client's id echoed", got)
	}
	var qw, co, so, total int64
	for _, h := range []struct {
		name string
		dst  *int64
	}{
		{"X-Phase-Queue-Wait-Ns", &qw},
		{"X-Phase-Coalesce-Ns", &co},
		{"X-Phase-Solve-Ns", &so},
		{"X-Phase-Total-Ns", &total},
	} {
		if err := json.Unmarshal([]byte(resp.Header.Get(h.name)), h.dst); err != nil {
			t.Fatalf("%s = %q: %v", h.name, resp.Header.Get(h.name), err)
		}
	}
	if so <= 0 || total <= 0 {
		t.Fatalf("phase headers empty: solve %d, total %d", so, total)
	}
	if sum := qw + co + so; sum > total {
		t.Fatalf("phase headers sum to %d > total %d", sum, total)
	}
	if resp.Header.Get("X-Batch") == "" || resp.Header.Get("X-Batch") == "0" {
		t.Fatalf("X-Batch = %q", resp.Header.Get("X-Batch"))
	}
	rec := lastRecord(t, d, "client-chosen-id-1")
	if rec.Outcome != trace.OutcomeOK {
		t.Fatalf("ring outcome = %v", rec.Outcome)
	}
}

// TestHTTPBoundsClientChosenText: a request id and an unknown matrix
// name of 64 KiB each come back bounded in the response header and in
// the flight record, so a client cannot grow what the ring keeps.
func TestHTTPBoundsClientChosenText(t *testing.T) {
	d := newTestDaemon(t, Config{Workers: 1}, testMatrix())
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	long := strings.Repeat("n", 64<<10)
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/solve/"+long, strings.NewReader(`{"b":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", long)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-Id")
	if resp.StatusCode != http.StatusNotFound || id == "" || len(id) > 128 {
		t.Errorf("status %d with a %d-byte X-Request-Id, want 404 and 1-128 bytes", resp.StatusCode, len(id))
	}
	if rec := lastRecord(t, d, id); len(rec.Matrix) == 0 || len(rec.Matrix) > 128 {
		t.Errorf("flight record keeps a %d-byte matrix name, want 1-128", len(rec.Matrix))
	}
}

// TestHTTPOverloadBodyCarriesQueueState: a 429 body identifies the
// request and reports the queue fill and bound that shed it, so the
// client can correlate the rejection with a /debug/flight dump.
func TestHTTPOverloadBodyCarriesQueueState(t *testing.T) {
	l := testMatrix()
	d := newTestDaemon(t, Config{Workers: 1, MaxQueue: 1, MaxBatch: 1, Window: -1}, l)
	entered, release := blockWorkers(d, "m")
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	b := gen.RandVec(l.Rows, 5400)
	results := make(chan int, 2)
	post := func() {
		resp, _ := postJSON(t, srv.URL+"/solve/m", SolveRequest{B: b})
		results <- resp.StatusCode
	}
	go post()
	<-entered
	go post()
	waitQueued(t, d, "m", 1)

	resp, body := postJSON(t, srv.URL+"/solve/m", SolveRequest{B: b})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != "overload" || er.RequestID == "" {
		t.Fatalf("overload body missing identity: %+v", er)
	}
	if er.RequestID != resp.Header.Get("X-Request-Id") {
		t.Fatalf("body id %q != header id %q", er.RequestID, resp.Header.Get("X-Request-Id"))
	}
	if er.QueueDepth != 1 || er.QueueCapacity != 1 {
		t.Fatalf("queue state = %d/%d, want 1/1", er.QueueDepth, er.QueueCapacity)
	}
	rec := lastRecord(t, d, er.RequestID)
	if rec.Outcome != trace.OutcomeShed {
		t.Fatalf("shed request recorded as %v", rec.Outcome)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("admitted request %d got %d", i, code)
		}
	}
	<-entered
}

// chromeEvent is one decoded Chrome trace_event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// decodeChrome decodes a Chrome trace_event export.
func decodeChrome(t *testing.T, r io.Reader) []chromeEvent {
	t.Helper()
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	return doc.TraceEvents
}

// getChrome fetches and decodes the chrome form of /debug/requests.
func getChrome(t *testing.T, base string) []chromeEvent {
	t.Helper()
	resp, err := http.Get(base + "/debug/requests?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return decodeChrome(t, resp.Body)
}

// TestHTTPDebugEndpoints: /debug/requests serves both formats, the
// Chrome export is valid JSON with one request event per request, even
// for matrix names the client chose, and /debug/flight round-trips
// through its JSON form. Without a step recorder the export holds only
// request and phase events, on the request rows, with the args keys the
// request tooling reads.
func TestHTTPDebugEndpoints(t *testing.T) {
	l := gen.Layered(800, 20, 5, 0.1, 5500)
	d := newTestDaemon(t, Config{Workers: 2}, l)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, srv.URL+"/solve/m", SolveRequest{B: gen.RandVec(l.Rows, int64(5501+i))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, resp.StatusCode, body)
		}
	}
	// Unregistered names arrive unescaped: a control byte, and a byte
	// that is not UTF-8.
	for _, path := range []string{"/solve/%07x", "/solve/%ff"} {
		if resp, body := postJSON(t, srv.URL+path, SolveRequest{B: []float64{1}}); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, body)
		}
	}

	phaseNames := map[string]bool{"admit": true, "queue-wait": true, "coalesce-hold": true, "solve": true, "respond": true}
	rows := map[int64]bool{}
	matrices := map[any]int{}
	var requests, phases int
	events := getChrome(t, srv.URL)
	for _, ev := range events {
		keys := strings.Join(slices.Sorted(maps.Keys(ev.Args)), ",")
		switch ev.Cat {
		case "request":
			requests++
			rows[ev.TID] = true
			matrices[ev.Args["matrix"]]++
			want := "batch,id,matrix,outcome,solve_id"
			if ev.Args["outcome"] == "ok" {
				want = "batch,deadline_slack_ns,id,matrix,outcome,solve_id"
			}
			if ev.Name != "request" || keys != want {
				t.Fatalf("request event %q with args %s, want %s", ev.Name, keys, want)
			}
		case "phase":
			phases++
			if !phaseNames[ev.Name] || keys != "id" {
				t.Fatalf("phase event %q with args %s", ev.Name, keys)
			}
		default:
			t.Fatalf("event %q of category %q with no step recorder attached", ev.Name, ev.Cat)
		}
	}
	if requests != 5 || phases == 0 {
		t.Fatalf("span tree has %d request events (want 5) and %d phase events (want > 0)", requests, phases)
	}
	if matrices["m"] != 3 || matrices["\ax"] != 1 || matrices["\ufffd"] != 1 {
		t.Fatalf("request matrices %v, want m three times, \\ax and U+FFFD once", matrices)
	}
	for _, ev := range events {
		if ev.Cat == "phase" && !rows[ev.TID] {
			t.Fatalf("phase %q on row %d, which has no request", ev.Name, ev.TID)
		}
	}

	resp, err := http.Get(srv.URL + "/debug/flight?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var flight struct {
		Total   uint64 `json:"total"`
		Records []struct {
			Outcome string `json:"outcome"`
		} `json:"records"`
	}
	err = json.NewDecoder(resp.Body).Decode(&flight)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/flight json export: %v", err)
	}
	if flight.Total != 5 || len(flight.Records) != 5 {
		t.Fatalf("flight = %d total, %d records, want 5/5", flight.Total, len(flight.Records))
	}
	outcomes := map[string]int{}
	for _, rec := range flight.Records {
		outcomes[rec.Outcome]++
	}
	if outcomes["ok"] != 3 || outcomes["error"] != 2 {
		t.Fatalf("flight outcomes %v, want 3 ok and 2 error", outcomes)
	}

	for _, bad := range []string{"/debug/requests?format=nope", "/debug/flight?format=nope"} {
		resp, err := http.Get(srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestChromeRequestsNestSteps: with a step recorder attached to the
// matrix's solver, the chrome form of /debug/requests copies every step
// of each request's solve onto the request's row, inside its solve phase,
// at the times the recorder's own export (what /trace serves) shows.
func TestChromeRequestsNestSteps(t *testing.T) {
	l := testMatrix()
	steps := trace.NewStepRecorder(1 << 14)
	// A multi-step plan: triangular leaves of at most 256 rows and the
	// SpMV squares between them.
	d := newDaemonWith(t, Config{Workers: 2, MaxBatch: 8, Window: 200 * time.Microsecond}, l,
		block.Options{Workers: 2, MinBlockRows: 256, Trace: steps})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	const n = 6
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if _, err := d.Solve(context.Background(), "m", gen.RandVec(l.Rows, int64(5700+c))); err != nil {
				t.Errorf("request %d: %v", c, err)
			}
		}(c)
	}
	wg.Wait()

	var buf bytes.Buffer
	if err := steps.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	type stepKey struct {
		solve int64
		step  any
	}
	own := map[stepKey]chromeEvent{}
	perSolve := map[int64]int{}
	for _, ev := range decodeChrome(t, &buf) {
		own[stepKey{ev.TID, ev.Args["step"]}] = ev
		perSolve[ev.TID]++
	}

	solveID := map[int64]int64{}
	solvePhase := map[int64]chromeEvent{}
	nested := map[int64][]chromeEvent{}
	for _, ev := range getChrome(t, srv.URL) {
		switch ev.Cat {
		case "request":
			solveID[ev.TID] = int64(ev.Args["solve_id"].(float64))
		case "phase":
			if ev.Name == "solve" {
				solvePhase[ev.TID] = ev
			}
		default:
			nested[ev.TID] = append(nested[ev.TID], ev)
		}
	}
	if len(solveID) != n {
		t.Fatalf("%d request rows, want %d", len(solveID), n)
	}
	ns := func(us float64) int64 { return int64(math.Round(us * 1e3)) }
	for row, sid := range solveID {
		ph, ok := solvePhase[row]
		if sid == 0 || !ok {
			t.Fatalf("request row %d: solve id %d, solve phase %v", row, sid, ok)
		}
		if got := len(nested[row]); got == 0 || got != perSolve[sid] {
			t.Fatalf("request row %d carries %d steps, want all %d of solve %d", row, got, perSolve[sid], sid)
		}
		for _, st := range nested[row] {
			if ns(st.TS) < ns(ph.TS) || ns(st.TS)+ns(st.Dur) > ns(ph.TS)+ns(ph.Dur) {
				t.Fatalf("row %d: step [%v, +%v] µs outside its solve phase [%v, +%v] µs", row, st.TS, st.Dur, ph.TS, ph.Dur)
			}
			if o, ok := own[stepKey{sid, st.Args["step"]}]; !ok || o.TS != st.TS || o.Dur != st.Dur || o.Name != st.Name {
				t.Fatalf("row %d: nested step %+v differs from the recorder's %+v", row, st, o)
			}
		}
	}
}

// TestHealthVerboseAndSLODegradation: with an impossible latency
// objective every request is an objective violation, so once the window
// holds sloMinSamples the matrix turns critical, /healthz?verbose=1
// reports the burn, and plain /healthz answers 503 while requests still
// succeed — health degrades before the queue hard-fails.
func TestHealthVerboseAndSLODegradation(t *testing.T) {
	l := gen.SerialChain(300, 0.2, 5600)
	d := newTestDaemon(t, Config{
		Workers: 2,
		SLO:     SLOConfig{Latency: time.Nanosecond, Target: 0.99, Window: time.Minute},
	}, l)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	for i := 0; i < sloMinSamples; i++ {
		b := gen.RandVec(l.Rows, int64(5601+i))
		if _, err := d.Solve(context.Background(), "m", b); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(srv.URL + "/healthz?verbose=1")
	if err != nil {
		t.Fatal(err)
	}
	var hr HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&hr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || hr.State != "critical" {
		t.Fatalf("verbose health = %d %q, want 503 critical", resp.StatusCode, hr.State)
	}
	if len(hr.Matrices) != 1 {
		t.Fatalf("matrices: %+v", hr.Matrices)
	}
	st := hr.Matrices[0]
	if st.State != "critical" || st.LatencyBurn < 4 || st.Slow != sloMinSamples {
		t.Fatalf("SLO status: %+v", st)
	}
	if st.Capacity == 0 || st.WindowS != 60 {
		t.Fatalf("SLO status lost its config echo: %+v", st)
	}

	plain, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	plain.Body.Close()
	if plain.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("critical plain healthz = %d, want 503", plain.StatusCode)
	}

	// Critical is a warning, not a refusal: solves still succeed.
	b := gen.RandVec(l.Rows, 5699)
	x, err := d.Solve(context.Background(), "m", b)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, l, b, x)
}

// TestSLOMonitorThresholds exercises the monitor directly: a fresh
// window is ok regardless of failures until sloMinSamples, latency burns
// degrade at 1 and turn critical at 4, and the error budget behaves the
// same way for failed outcomes.
func TestSLOMonitorThresholds(t *testing.T) {
	now := time.Unix(1000, 0)
	m := newSLOMonitor("t", SLOConfig{Latency: time.Millisecond, Target: 0.9, ErrorBudget: 0.1, Window: time.Minute})

	// Below the sample floor nothing flips, even at 100% failure.
	for i := 0; i < sloMinSamples-1; i++ {
		m.observe(time.Second, true, now)
	}
	if st := m.status("t", now); st.State != "ok" {
		t.Fatalf("sub-floor window = %q, want ok", st.State)
	}

	// 100% failures: error burn = 1/0.1 = 10 ≥ 4 → critical.
	m.observe(time.Second, true, now)
	if st := m.status("t", now); st.State != "critical" || st.ErrorBurn < 4 {
		t.Fatalf("all-failed window: %+v", st)
	}

	// A fresh monitor with exactly the budgeted slow fraction burns at
	// 1.0: degraded, not critical.
	m2 := newSLOMonitor("t2", SLOConfig{Latency: time.Millisecond, Target: 0.9, ErrorBudget: 0.1, Window: time.Minute})
	for i := 0; i < 90; i++ {
		m2.observe(time.Microsecond, false, now)
	}
	for i := 0; i < 10; i++ {
		m2.observe(time.Second, false, now)
	}
	st := m2.status("t2", now)
	if st.State != "degraded" || st.LatencyBurn < 0.99 || st.LatencyBurn > 1.01 {
		t.Fatalf("budget-exact window: %+v", st)
	}

	// The window expires: the same monitor an hour later is ok again.
	if st := m2.status("t2", now.Add(time.Hour)); st.State != "ok" || st.Requests != 0 {
		t.Fatalf("expired window: %+v", st)
	}
}
