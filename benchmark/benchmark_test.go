package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"testing"

	sptrsv "github.com/sss-lab/blocksptrsv"
)

// testSize shrinks every workload to matrices of a few hundred rows.
const testSize = 0.01

// testSeconds is the measured time of each workload run in the tests:
// one second, a quarter of one with -short.
func testSeconds() float64 {
	if testing.Short() {
		return 0.25
	}
	return 1
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	var sp spec
	if err := loadJSON("../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestWorkloadsEmitDeclaredMetrics runs every workload declared in
// BENCHMARK.json untraced and traced on tiny inputs, and checks that each
// run emits exactly the declared metrics with their units, all finite,
// with no failed request, no rejected answer and no failed internal
// check. The internal checks include the trace step sums against
// SolveStats on every library matrix and queue+hold+solve <= total on
// every daemon response.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	sp := loadSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for _, decl := range sp.Workloads {
		w, err := findWorkload(decl.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			res, err := runWorkload(w, 4100, testSize, testSeconds(), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.problems) > 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%q",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %s, declared %s", w.name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value == math.MaxFloat64:
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, m.Name, got.Value)
				}
			}
		}
	}
}

// TestOracle checks that the backward error accepts the library's serial
// solution and the benchmark's refSolve, and rejects a solution whose
// single component moved by 1e-6·‖x‖∞, also when the bad vector is one
// column of a row-major block.
func TestOracle(t *testing.T) {
	for _, in := range workloads[0].build(4100, testSize) {
		ref, err := sptrsv.NewSolver[float64]("serial", in.l, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := in.l.Rows
		rng := rand.New(rand.NewSource(1))
		const k = 3
		b, x := make([]float64, n*k), make([]float64, n*k)
		for j := 0; j < k; j++ {
			bj, xj := make([]float64, n), make([]float64, n)
			for i := range bj {
				bj[i] = rng.NormFloat64()
			}
			ref.Solve(bj, xj)
			for i := 0; i < n; i++ {
				b[i*k+j], x[i*k+j] = bj[i], xj[i]
			}
		}
		if !acceptBlock(in.l, x, b, k) {
			t.Fatalf("%s: serial reference rejected", in.name)
		}
		b0, xref := make([]float64, n), make([]float64, n)
		for i := range b0 {
			b0[i] = b[i*k]
		}
		refSolve(in.l, b0, xref)
		if !acceptBlock(in.l, xref, b0, 1) {
			t.Fatalf("%s: refSolve rejected", in.name)
		}
		norm := 0.0
		for i := 0; i < n; i++ {
			norm = math.Max(norm, math.Abs(x[i*k+1]))
		}
		x[(n/2)*k+1] += 1e-6 * norm
		if e := backwardError(in.l, x, b, k, 1); e <= tolerance {
			t.Errorf("%s: perturbed column has backward error %g, accepted", in.name, e)
		}
		if e := backwardError(in.l, x, b, k, 0); e > tolerance {
			t.Errorf("%s: untouched column has backward error %g, rejected", in.name, e)
		}
		if acceptBlock(in.l, x, b, k) {
			t.Errorf("%s: block with a perturbed column accepted", in.name)
		}
		x[0] = math.NaN()
		if e := backwardError(in.l, x, b, k, 0); !math.IsInf(e, 1) {
			t.Errorf("%s: NaN solution has backward error %g", in.name, e)
		}
	}
}

// TestPhasesFitInTotal sends both daemon phases to a tiny serve workload
// and checks every response: status 200, a correct answer where checked,
// and queue + hold + solve within the daemon's total.
func TestPhasesFitInTotal(t *testing.T) {
	w, err := findWorkload("serve")
	if err != nil {
		t.Fatal(err)
	}
	mats := w.build(4100, testSize)
	d, err := newDaemon(mats)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(d)
	srv, err := newServer(d, mats, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	run := srv.measure(0.6, 2)
	if len(run.light.refs) == 0 || !(run.satRatio > 0) {
		t.Fatalf("reference service: %d light requests, saturated ratio %v", len(run.light.refs), run.satRatio)
	}
	for _, p := range []*phase{run.light, run.sat} {
		if len(p.exchanges) == 0 || p.failed() != 0 {
			t.Fatalf("%d requests, %d failed", len(p.exchanges), p.failed())
		}
		for _, ex := range p.exchanges {
			if ex.status != http.StatusOK || ex.total <= 0 || ex.queue+ex.hold+ex.solve > ex.total {
				t.Errorf("status %d, queue %v + hold %v + solve %v vs total %v", ex.status, ex.queue, ex.hold, ex.solve, ex.total)
			}
		}
	}
}

// TestCompareFlagsRegressions checks -compare against sets of reports of
// every declared workload and end-to-end metric. A change inside every
// bound passes; a latency or throughput beyond its bound is flagged; a
// side is its median; a metric or workload missing on either side is
// flagged; failures compare as a share of attempts, whatever the number
// of runs per side; traced and untraced sides do not compare.
func TestCompareFlagsRegressions(t *testing.T) {
	sp := loadSpec(t)
	bound := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bound[m.Name] = m.Bound
	}
	lat, thr := "rel_latency_p50", "rel_throughput"
	dir := t.TempDir()
	n := 0
	// write stores a report in which every declared metric reads 1 on
	// every declared workload, each run attempting 100 times and failing
	// failed times, with edit applied last.
	write := func(failed int64, edit func(r *report)) string {
		n++
		r := report{Workloads: map[string]*result{}}
		for _, wl := range sp.Workloads {
			res := &result{outcome: outcome{Correct: true, Attempted: 100, Failed: failed, Metrics: map[string]metric{}}}
			for _, m := range sp.EndToEnd {
				res.Metrics[m.Name] = metric{Value: 1, Unit: m.Unit}
			}
			r.Workloads[wl.Name] = res
		}
		if edit != nil {
			edit(&r)
		}
		path := filepath.Join(dir, fmt.Sprintf("%d.json", n))
		if err := writeReport(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	set := func(name string, v float64) func(*report) {
		return func(r *report) { r.Workloads["deep"].Metrics[name] = metric{Value: v, Unit: "ratio"} }
	}
	drop := func(name string) func(*report) {
		return func(r *report) { delete(r.Workloads["deep"].Metrics, name) }
	}
	base := []string{write(0, nil)}
	for _, c := range []struct {
		name    string
		a, b    []string
		flagged bool
	}{
		{"inside bounds", base, []string{write(0, set(lat, 1+bound[lat]/2))}, false},
		{"better", base, []string{write(0, func(r *report) { set(lat, 0.5)(r); set(thr, 2)(r) })}, false},
		{"latency beyond bound", base, []string{write(0, set(lat, 1+2*bound[lat]))}, true},
		{"throughput beyond bound", base, []string{write(0, set(thr, 1-2*bound[thr]))}, true},
		{"median of b", base, []string{write(0, set(lat, 1+2*bound[lat])), write(0, nil), write(0, set(lat, 1+bound[lat]/2))}, false},
		{"metric missing on b", base, []string{write(0, drop(lat))}, true},
		{"metric missing on a", []string{write(0, drop(lat))}, base, true},
		{"workload missing on b", base, []string{write(0, func(r *report) { delete(r.Workloads, "serve") })}, true},
		{"more failures", []string{write(1, nil)}, []string{write(2, nil)}, true},
		{"same failure share, more runs", []string{write(1, nil)}, []string{write(1, nil), write(1, nil), write(1, nil)}, false},
		{"failure share rose, fewer runs", []string{write(0, nil), write(0, nil), write(0, nil)}, []string{write(1, nil)}, true},
		{"traced against untraced", base, []string{write(0, func(r *report) { r.Env.Trace = 1 })}, true},
	} {
		var out bytes.Buffer
		err := runCompare(&out, sp, c.a, c.b)
		if (err != nil) != c.flagged {
			t.Errorf("%s: err %v, output:\n%s", c.name, err, out.String())
		}
	}
}
