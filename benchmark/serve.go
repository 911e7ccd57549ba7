package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	sptrsv "github.com/sss-lab/blocksptrsv"
	"github.com/sss-lab/blocksptrsv/internal/daemon"
)

// satCallers is the number of closed-loop callers of the saturated phase:
// enough waiting callers that the admission queue always holds work.
const satCallers = 16

// lightRate is the open-loop arrival rate of the light phase, in requests
// per second. On the serve inputs it is low enough that the daemon does
// not coalesce (daemon.light.coalesce reads 1.0), so the phase sees
// per-request overheads. It holds only for those inputs: on the wide
// workload's matrices the same rate queued requests for 218 ms (median)
// and coalesced 3.8 per batch.
const lightRate = 50

// newDaemon registers every matrix with a daemon in the configuration
// sptrsvd ships: daemon.Config{} defaults and DefaultOptions(0).
func newDaemon(mats []input) (*daemon.Daemon, error) {
	d := daemon.New(daemon.Config{})
	for _, in := range mats {
		if err := d.AddMatrix(in.name, in.l, sptrsv.DefaultOptions(0)); err != nil {
			shutdown(d)
			return nil, fmt.Errorf("register %s: %w", in.name, err)
		}
	}
	return d, nil
}

func shutdown(d *daemon.Daemon) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: daemon drain:", err)
	}
}

// server drives a daemon and the reference service through their HTTP
// handlers in-process, with the request bodies encoded ahead of time.
type server struct {
	d      *daemon.Daemon
	h      http.Handler
	ref    refService
	mats   []input
	rhs    [][][]float64 // per matrix, rhsPerStream vectors
	bodies [][][]byte    // the same vectors as encoded SolveRequests
}

func newServer(d *daemon.Daemon, mats []input, rng *rand.Rand) (*server, error) {
	s := &server{d: d, h: d.Handler(), mats: mats}
	for _, in := range mats {
		var rhs [][]float64
		var bodies [][]byte
		for i := 0; i < rhsPerStream; i++ {
			b := make([]float64, in.l.Rows)
			for j := range b {
				b[j] = rng.NormFloat64()
			}
			body, err := json.Marshal(daemon.SolveRequest{B: b})
			if err != nil {
				return nil, err
			}
			rhs = append(rhs, b)
			bodies = append(bodies, body)
		}
		s.rhs = append(s.rhs, rhs)
		s.bodies = append(s.bodies, bodies)
	}
	s.ref = newRefService(mats)
	return s, nil
}

// exchange is one request and what came back.
type exchange struct {
	m, rhs  int
	status  int
	serve   time.Duration // ServeHTTP wall time
	latency time.Duration // from the due time (light) or the call (saturated)
	// The daemon's phase attribution from the X-Phase-* headers.
	queue, hold, solve, total time.Duration
	// body is the response, kept only for checked requests.
	body []byte
}

// do sends one request for matrix m with right-hand side rhs to the
// daemon, or with ref to the reference service. keep retains the response
// body for the oracle.
func (s *server) do(m, rhs int, ref, keep bool) exchange {
	var h http.Handler = s.h
	if ref {
		h = s.ref
	}
	req := httptest.NewRequest(http.MethodPost, "/solve/"+s.mats[m].name, bytes.NewReader(s.bodies[m][rhs]))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	ex := exchange{m: m, rhs: rhs, status: rec.Code, serve: time.Since(t0)}
	ex.latency = ex.serve
	hdr := rec.Header()
	ex.queue = headerNs(hdr, "X-Phase-Queue-Wait-Ns")
	ex.hold = headerNs(hdr, "X-Phase-Coalesce-Ns")
	ex.solve = headerNs(hdr, "X-Phase-Solve-Ns")
	ex.total = headerNs(hdr, "X-Phase-Total-Ns")
	if keep {
		ex.body = rec.Body.Bytes()
	}
	return ex
}

func headerNs(h http.Header, key string) time.Duration {
	v, err := strconv.ParseInt(h.Get(key), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(v)
}

// counters sums the daemon's per-matrix counters.
type counters struct{ batches, batched, shed, expired int64 }

func (s *server) counters() counters {
	var c counters
	for _, st := range s.d.Stats() {
		c.batches += st.Batches
		c.batched += st.Batched
		c.shed += st.Shed
		c.expired += st.Expired
	}
	return c
}

func (c counters) plus(o counters) counters {
	return counters{c.batches + o.batches, c.batched + o.batched, c.shed + o.shed, c.expired + o.expired}
}

func (c counters) minus(o counters) counters {
	return counters{c.batches - o.batches, c.batched - o.batched, c.shed - o.shed, c.expired - o.expired}
}

// phase is the outcome of one load phase: its daemon requests and, apart,
// its reference requests.
type phase struct {
	exchanges []exchange
	refs      []exchange
	wall      time.Duration // saturated phase: wall time of the daemon's closed loops
	lags      []float64     // light phase: ms each daemon request was issued late
	delta     counters      // daemon counters over the phase
	ok, wrong int64         // daemon 200 responses, and checked ones the oracle rejected
}

// failed counts daemon requests that did not return a correct answer.
func (p *phase) failed() int64 { return int64(len(p.exchanges)) - p.ok + p.wrong }

// latencies returns each request's latency in ms, +Inf for a request
// that did not succeed.
func latencies(exs []exchange) []float64 {
	out := make([]float64, len(exs))
	for i, ex := range exs {
		out[i] = ms(ex.latency)
		if ex.status != http.StatusOK {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// relLatencies returns, per matrix, the light-phase daemon latencies
// over the reference service's mean latency on that matrix in the same
// phase. Matrices are kept apart because their latencies differ: a median
// over a mix of two would jump with the share each got. The scale is a
// mean because the reference's latency switched between two levels 1.8×
// apart from one cycle to the next on a shared host; a median jumped
// with the share of each, a mean moves in proportion.
func (p *phase) relLatencies(nm int) [][]float64 {
	scale := make([]float64, nm)
	for m := range scale {
		var v []float64
		for _, ex := range p.refs {
			if ex.m == m {
				v = append(v, ms(ex.latency))
			}
		}
		scale[m] = mean(v)
	}
	out := make([][]float64, nm)
	for i, l := range latencies(p.exchanges) {
		m := p.exchanges[i].m
		out[m] = append(out[m], l/scale[m])
	}
	return out
}

// The light phase runs in cycles of lightCycle: a daemon slice of
// lightDaemon, then a reference slice. The reference slice is short
// because its closed-loop requests are many; a few dozen per cycle give
// its mean.
const (
	lightCycle  = 1500 * time.Millisecond
	lightDaemon = 1250 * time.Millisecond
)

// light is the open-loop phase, run in cycles of lightCycle. For the
// first lightDaemon of a cycle requests arrive at the daemon as a Poisson
// process at lightRate, matrices and right-hand sides drawn from
// rng; each is timed from its due time, so a stall also delays the
// requests behind it. Once those have returned and refPause has passed,
// the reference service gets the rest of the cycle from GOMAXPROCS
// callers, each sending its next request when the last returns, in a
// fixed rotation of matrices and right-hand sides. Like the daemon, the
// reference then runs on every CPU, but the two never run at once, so
// neither one's work lands in the other's latency. Per matrix the first,
// the last and every sampleEvery-th daemon request are checked.
func (s *server) light(dur time.Duration, rng *rand.Rand) *phase {
	type arrival struct {
		at      time.Duration // from the start of its slice
		m, rhs  int
		checked bool
	}
	sched := make([][]arrival, max(1, int(dur/lightCycle)))
	seen := make([]int, len(s.mats))
	last := make([]*arrival, len(s.mats))
	for wi := range sched {
		for at := time.Duration(0); ; {
			at += time.Duration(rng.ExpFloat64() / lightRate * float64(time.Second))
			if at >= lightDaemon {
				break
			}
			sched[wi] = append(sched[wi], arrival{at: at, m: rng.Intn(len(s.mats)), rhs: rng.Intn(rhsPerStream)})
		}
		for i := range sched[wi] {
			a := &sched[wi][i]
			a.checked = seen[a.m]%sampleEvery == 0
			seen[a.m]++
			last[a.m] = a
		}
	}
	for _, a := range last {
		if a != nil {
			a.checked = true
		}
	}

	p := &phase{}
	before := s.counters()
	for _, arrivals := range sched {
		out := make([]exchange, len(arrivals))
		var wg sync.WaitGroup
		start := time.Now()
		for i, a := range arrivals {
			due := start.Add(a.at)
			time.Sleep(time.Until(due))
			p.lags = append(p.lags, ms(time.Since(due)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				ex := s.do(a.m, a.rhs, false, a.checked)
				ex.latency = time.Since(due)
				out[i] = ex
			}()
		}
		time.Sleep(time.Until(start.Add(lightDaemon)))
		wg.Wait()
		p.exchanges = append(p.exchanges, out...)

		time.Sleep(refPause)
		end := start.Add(lightCycle)
		refOut := make([][]exchange, runtime.GOMAXPROCS(0))
		for c := range refOut {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j == 0 || time.Now().Before(end); j++ {
					refOut[c] = append(refOut[c], s.do((j+c)%len(s.mats), j/len(s.mats)%rhsPerStream, true, false))
				}
			}()
		}
		wg.Wait()
		for _, o := range refOut {
			p.refs = append(p.refs, o...)
		}
	}
	p.delta = s.counters().minus(before)
	s.verify(p)
	return p
}

// closedLoop runs satCallers callers against the daemon, or with ref the
// reference service, each sending its next request as soon as the
// previous one returns, until dur has passed. The reference starts after
// refPause. Each caller checks its first, its last and every
// sampleEvery-th daemon answer.
func (s *server) closedLoop(dur time.Duration, seed int64, ref bool) *phase {
	per := make([][]exchange, satCallers)
	if ref {
		time.Sleep(refPause)
	}
	before := s.counters()
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < satCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			var mine []exchange
			for len(mine) == 0 || time.Now().Before(deadline) {
				mine = append(mine, s.do(rng.Intn(len(s.mats)), rng.Intn(rhsPerStream), ref, !ref))
				if n := len(mine); n >= 2 && (n-2)%sampleEvery != 0 {
					mine[n-2].body = nil // the previous one is neither sampled nor last
				}
			}
			per[c] = mine
		}()
	}
	wg.Wait()
	p := &phase{wall: time.Since(start), delta: s.counters().minus(before)}
	for _, mine := range per {
		if ref {
			p.refs = append(p.refs, mine...)
		} else {
			p.exchanges = append(p.exchanges, mine...)
		}
	}
	s.verify(p)
	return p
}

// saturated alternates closed-loop periods of about half a second on the
// daemon and on the reference service, the order swapped from pair to
// pair. It returns the daemon's periods as one phase, and the median over
// the pairs of the daemon's throughput over the reference's.
func (s *server) saturated(dur time.Duration, seed int64) (*phase, float64) {
	pairs := max(1, int(math.Round(dur.Seconds())))
	half := dur / time.Duration(2*pairs)
	all := &phase{}
	var ratios []float64
	for i := 0; i < pairs; i++ {
		var d, r *phase
		if i%2 == 0 {
			d = s.closedLoop(half, seed+int64(i), false)
			r = s.closedLoop(half, seed+int64(i), true)
		} else {
			r = s.closedLoop(half, seed+int64(i), true)
			d = s.closedLoop(half, seed+int64(i), false)
		}
		ratios = append(ratios, throughput(d.exchanges, d.wall)/throughput(r.refs, r.wall))
		all.exchanges = append(all.exchanges, d.exchanges...)
		all.wall += d.wall
		all.delta = all.delta.plus(d.delta)
		all.ok += d.ok
		all.wrong += d.wrong
	}
	return all, median(ratios)
}

// throughput is the number of 200 responses among exs per second of wall.
func throughput(exs []exchange, wall time.Duration) float64 {
	n := 0
	for _, ex := range exs {
		if ex.status == http.StatusOK {
			n++
		}
	}
	return float64(n) / wall.Seconds()
}

// verify counts the daemon's successes and runs the oracle on every
// retained 200 response, after the phase so decoding does not load the
// daemon.
func (s *server) verify(p *phase) {
	for i := range p.exchanges {
		ex := &p.exchanges[i]
		if ex.status != http.StatusOK {
			continue
		}
		p.ok++
		if ex.body == nil {
			continue
		}
		var resp daemon.SolveResponse
		if err := json.Unmarshal(ex.body, &resp); err != nil || len(resp.X) != s.mats[ex.m].l.Rows ||
			!acceptBlock(s.mats[ex.m].l, resp.X, s.rhs[ex.m][ex.rhs], 1) {
			p.wrong++
		}
		ex.body = nil
	}
}

// warm sends a few requests per matrix to both services, sequentially and
// then from concurrent callers, so sessions and batch scratch exist
// before timing.
func (s *server) warm(seed int64) {
	for m := range s.mats {
		for i := 0; i < 4; i++ {
			s.do(m, i%rhsPerStream, false, false)
			s.do(m, i%rhsPerStream, true, false)
		}
	}
	s.saturated(400*time.Millisecond, seed)
}

// serveRun is a daemon measured in both phases.
type serveRun struct {
	light, sat *phase
	// satRatio is the daemon's saturated throughput over the reference
	// service's.
	satRatio float64
}

// measure warms the server up and runs the light phase for three
// quarters of seconds and the saturated phase for the rest.
func (s *server) measure(seconds float64, seed int64) serveRun {
	s.warm(seed)
	rng := rand.New(rand.NewSource(seed))
	light := s.light(seconds2dur(seconds*3/4), rng)
	sat, ratio := s.saturated(seconds2dur(seconds/4), seed)
	return serveRun{light: light, sat: sat, satRatio: ratio}
}

// runServe measures the daemon workload untraced: registration time,
// retained memory, and light-phase latency and saturated throughput, both
// relative to the reference service.
func runServe(mats []input, seconds float64, seed int64) (*result, error) {
	res := newResult()
	setup, err := medianSetup(mats, func() (func(), error) {
		d, err := newDaemon(mats)
		if err != nil {
			return nil, err
		}
		return func() { shutdown(d) }, nil
	})
	if err != nil {
		return nil, err
	}
	var d *daemon.Daemon
	planMB, err := heapDelta(func() error {
		d, err = newDaemon(mats)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer shutdown(d)
	srv, err := newServer(d, mats, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	run := srv.measure(seconds, seed)

	light := run.light
	var p50, p75 []float64
	for _, rel := range light.relLatencies(len(mats)) {
		p50 = append(p50, median(rel))
		p75 = append(p75, quantile(rel, 0.75))
	}
	res.Attempted = int64(len(light.exchanges) + len(run.sat.exchanges))
	res.Failed = light.failed() + run.sat.failed()
	res.Correct = light.wrong+run.sat.wrong == 0
	res.set("setup_s", setup, "s")
	res.set("plan_mb", planMB, "MB")
	res.set("rel_latency_p50", geomean(p50), "ratio")
	res.set("rel_latency_p75", geomean(p75), "ratio")
	res.set("rel_throughput", run.satRatio, "ratio")
	lat := latencies(light.exchanges)
	res.note("latency_ms_p50", median(lat), "ms")
	res.note("latency_ms_p90", quantile(lat, 0.9), "ms")
	res.note("ref_ms_p50", median(latencies(light.refs)), "ms")
	res.note("sat_req_per_s", float64(run.sat.ok)/run.sat.wall.Seconds(), "1/s")
	return res, nil
}

func seconds2dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
