package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/gen"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func errKind(t *testing.T, body []byte) string {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body is not JSON: %v (%q)", err, body)
	}
	if er.Error == "" {
		t.Fatalf("error body missing message: %q", body)
	}
	return er.Kind
}

func TestHTTPSolveRoundTrip(t *testing.T) {
	l := gen.Layered(800, 20, 5, 0.1, 950)
	d := newTestDaemon(t, Config{Workers: 2}, l)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	b := gen.RandVec(l.Rows, 951)
	resp, body := postJSON(t, srv.URL+"/solve/m", SolveRequest{B: b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.X) != l.Rows {
		t.Fatalf("got %d solution values, want %d", len(sr.X), l.Rows)
	}
	checkSolution(t, l, b, sr.X)

	// The stats endpoint reflects the request that just ran.
	statsResp, err := http.Get(srv.URL + "/matrices")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats []MatrixStats
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Name != "m" || stats[0].Batched != 1 {
		t.Fatalf("stats: %+v", stats)
	}

	health, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", health.StatusCode)
	}
}

func TestHTTPTypedErrors(t *testing.T) {
	l := gen.SerialChain(200, 0.2, 960)
	d := newTestDaemon(t, Config{Workers: 1, MaxQueue: 1, MaxBatch: 1, Window: -1}, l)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp, body := postJSON(t, srv.URL+"/solve/ghost", SolveRequest{B: make([]float64, 200)})
	if resp.StatusCode != http.StatusNotFound || errKind(t, body) != "unknown_matrix" {
		t.Fatalf("unknown matrix: %d %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, srv.URL+"/solve/m", SolveRequest{B: make([]float64, 3)})
	if resp.StatusCode != http.StatusBadRequest || errKind(t, body) != "dimension" {
		t.Fatalf("dimension: %d %s", resp.StatusCode, body)
	}

	r, err := http.Post(srv.URL+"/solve/m", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d", r.StatusCode)
	}

	// A non-positive timeout means the server default.
	resp, body = postJSON(t, srv.URL+"/solve/m", SolveRequest{B: make([]float64, 200), TimeoutMS: -1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("negative timeout should mean server default: %d %s", resp.StatusCode, body)
	}

	// One millisecond past the largest time.Duration is refused, not
	// wrapped into a deadline already past.
	resp, body = postJSON(t, srv.URL+"/solve/m", SolveRequest{B: make([]float64, 200), TimeoutMS: math.MaxInt64/1_000_000 + 1})
	if resp.StatusCode != http.StatusBadRequest || errKind(t, body) != "bad_request" {
		t.Fatalf("overflowing timeout: %d %s", resp.StatusCode, body)
	}
}

// TestHTTPOverloadBackpressure: a full queue answers 429 with a
// Retry-After header whose value is a positive whole number of seconds.
func TestHTTPOverloadBackpressure(t *testing.T) {
	l := testMatrix()
	d := newTestDaemon(t, Config{Workers: 1, MaxQueue: 1, MaxBatch: 1, Window: -1}, l)
	entered, release := blockWorkers(d, "m")
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	b := gen.RandVec(l.Rows, 970)
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
	if resp.StatusCode != http.StatusTooManyRequests || errKind(t, body) != "overload" {
		t.Fatalf("overload: %d %s", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("admitted request %d got %d", i, code)
		}
	}
	<-entered
}

func TestHTTPDrainingAndDeadline(t *testing.T) {
	l := gen.SerialChain(200, 0.2, 980)
	d := New(Config{Workers: 1})
	if err := d.AddMatrix("m", l, block.Options{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Deadline kind: park the worker so a tight client deadline expires
	// in the queue.
	entered, release := blockWorkers(d, "m")
	blocker := make(chan struct{})
	go func() {
		defer close(blocker)
		resp, _ := postJSON(t, srv.URL+"/solve/m", SolveRequest{B: make([]float64, 200)})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("blocker got %d", resp.StatusCode)
		}
	}()
	<-entered
	victim := make(chan *http.Response, 1)
	victimBody := make(chan []byte, 1)
	go func() {
		resp, body := postJSON(t, srv.URL+"/solve/m", SolveRequest{B: make([]float64, 200), TimeoutMS: 20})
		victim <- resp
		victimBody <- body
	}()
	waitQueued(t, d, "m", 1)
	time.Sleep(40 * time.Millisecond) // let the 20ms deadline expire in the queue
	close(release)                    // the worker now dequeues and drops it
	resp, body := <-victim, <-victimBody
	if resp.StatusCode != http.StatusGatewayTimeout || errKind(t, body) != "deadline" {
		t.Fatalf("deadline: %d %s", resp.StatusCode, body)
	}
	<-blocker

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, srv.URL+"/solve/m", SolveRequest{B: make([]float64, 200)})
	if resp.StatusCode != http.StatusServiceUnavailable || errKind(t, body) != "draining" {
		t.Fatalf("draining: %d %s", resp.StatusCode, body)
	}
	health, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d", health.StatusCode)
	}
}

// TestHTTPObsFallthrough: paths the daemon does not claim are routed to
// the configured observability handler; without one they 404.
func TestHTTPObsFallthrough(t *testing.T) {
	l := gen.SerialChain(100, 0.2, 990)
	obs := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "obs:%s", r.URL.Path)
	})
	d := newTestDaemon(t, Config{Obs: obs}, l)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	for _, path := range []string{"/metrics", "/debug/pprof/", "/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got, want := buf.String(), "obs:"+path; got != want {
			t.Fatalf("%s routed to %q, want %q", path, got, want)
		}
	}

	bare := newTestDaemon(t, Config{}, gen.SerialChain(100, 0.2, 991))
	bareSrv := httptest.NewServer(bare.Handler())
	defer bareSrv.Close()
	resp, err := http.Get(bareSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no-obs /metrics = %d, want 404", resp.StatusCode)
	}
}

// TestLoadgenAgainstServer drives the real load generator against an
// httptest daemon — the same path `sptrsvd -loadgen` and `make
// daemon-smoke` use — and checks its classification and coalescing
// arithmetic.
func TestLoadgenAgainstServer(t *testing.T) {
	l := testMatrix()
	d := newTestDaemon(t, Config{Workers: 1, MaxBatch: 16, MaxQueue: 256, Window: 300 * time.Microsecond}, l)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// The duration grows until at least one request completes: under the
	// race detector the full JSON+solve round trip can outlast a short
	// window, and an all-in-flight run would assert nothing.
	var res *LoadResult
	var err error
	for _, dur := range []time.Duration{300 * time.Millisecond, time.Second, 4 * time.Second} {
		res, err = RunLoad(LoadConfig{
			URL: srv.URL, Matrix: "m", Concurrency: 6,
			Duration: dur, Seed: 7, Client: srv.Client(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.OK > 0 {
			break
		}
	}
	if res.Rows != l.Rows {
		t.Fatalf("rows = %d, want %d", res.Rows, l.Rows)
	}
	if res.OK == 0 || res.Requests != res.OK+res.Shed+res.Deadlined+res.Failed {
		t.Fatalf("inconsistent counts: %+v", res)
	}
	if res.Failed != 0 {
		t.Fatalf("%d failed requests", res.Failed)
	}
	if int64(len(res.Latencies)) != res.OK {
		t.Fatalf("%d latencies for %d successes", len(res.Latencies), res.OK)
	}
	for i := 1; i < len(res.Latencies); i++ {
		if res.Latencies[i] < res.Latencies[i-1] {
			t.Fatal("latencies not sorted")
		}
	}
	if res.Coalesce < 1 {
		t.Fatalf("coalesce = %.2f", res.Coalesce)
	}

	if _, err := RunLoad(LoadConfig{URL: srv.URL, Matrix: "ghost", Duration: 50 * time.Millisecond}); err == nil {
		t.Fatal("loadgen accepted an unknown matrix")
	}
}
