package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// tinySuite runs the suite once per test binary at the smallest usable
// size; the report is shared by the round-trip and gate tests.
var tinySuite = sync.OnceValues(func() (*BenchReport, error) {
	return RunSuite(SuiteConfig{Scale: 0.01, Repeats: 3, Warmup: 0, Short: true, Workers: 2})
})

func tinyReport(t *testing.T) *BenchReport {
	t.Helper()
	rep, err := tinySuite()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSuiteReportRoundTrip: the emitted JSON is schema-valid and decodes
// back to the identical report (acceptance criterion for -suite -json).
func TestSuiteReportRoundTrip(t *testing.T) {
	rep := tinyReport(t)
	if rep.Schema != ReportSchemaVersion {
		t.Fatalf("schema = %d, want %d", rep.Schema, ReportSchemaVersion)
	}
	// 4 short-mode matrices x 3 algorithms.
	if len(rep.Results) != 12 {
		t.Fatalf("got %d results, want 12", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.MedianNs <= 0 || r.MinNs <= 0 || r.MeanNs <= 0 {
			t.Fatalf("%s/%s has non-positive stats: %+v", r.Matrix, r.Algorithm, r)
		}
		if r.MinNs > r.MedianNs {
			t.Fatalf("%s/%s: min %d > median %d", r.Matrix, r.Algorithm, r.MinNs, r.MedianNs)
		}
		if r.N <= 0 || r.NNZ <= 0 || r.GFlops <= 0 {
			t.Fatalf("%s/%s missing geometry: %+v", r.Matrix, r.Algorithm, r)
		}
	}
	if rep.Env.GoVersion == "" || rep.Env.GOMAXPROCS <= 0 || rep.Env.Time == "" || rep.Env.GitSHA == "" {
		t.Fatalf("environment capture incomplete: %+v", rep.Env)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("report did not round-trip:\ngot  %+v\nwant %+v", got, rep)
	}
}

// TestGate: an identical report passes; injecting an artificial 2x
// slowdown into a cached copy fails (acceptance criterion for -baseline).
func TestGate(t *testing.T) {
	rep := tinyReport(t)

	same := Gate(rep, rep, 25)
	if !same.Pass() {
		t.Fatalf("identical report fails its own gate: %+v", same.Regressions)
	}
	if same.Compared != len(rep.Results) {
		t.Fatalf("compared %d of %d measurements", same.Compared, len(rep.Results))
	}

	// Clone and double one measurement's solve statistics.
	slow := *rep
	slow.Results = append([]SuiteResult(nil), rep.Results...)
	slow.Results[0].MedianNs *= 2
	slow.Results[0].MinNs *= 2
	slow.Results[0].MeanNs *= 2
	g := Gate(rep, &slow, 25)
	if g.Pass() {
		t.Fatal("2x slowdown passed the 25% gate")
	}
	if len(g.Regressions) != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", len(g.Regressions), g.Regressions)
	}
	r := g.Regressions[0]
	if r.Matrix != rep.Results[0].Matrix || r.Algorithm != rep.Results[0].Algorithm {
		t.Fatalf("regression names wrong pair: %+v", r)
	}
	if r.Ratio < 1.9 || r.Ratio > 2.1 {
		t.Fatalf("regression ratio = %v, want ~2", r.Ratio)
	}

	// A 2x *speedup* never trips the gate.
	fast := *rep
	fast.Results = append([]SuiteResult(nil), rep.Results...)
	fast.Results[0].MedianNs /= 2
	if g := Gate(rep, &fast, 25); !g.Pass() {
		t.Fatalf("speedup tripped the gate: %+v", g.Regressions)
	}

	// The human rendering names the failure.
	var buf bytes.Buffer
	g.Write(&buf, 25)
	if !strings.Contains(buf.String(), "FAIL") || !strings.Contains(buf.String(), r.Matrix) {
		t.Fatalf("gate report missing failure detail:\n%s", buf.String())
	}
	var ok bytes.Buffer
	same.Write(&ok, 25)
	if !strings.Contains(ok.String(), "PASS") {
		t.Fatalf("clean gate report missing PASS:\n%s", ok.String())
	}
}

// TestGateEnvMismatch: differing run environments warn but never fail
// the gate.
func TestGateEnvMismatch(t *testing.T) {
	rep := tinyReport(t)

	if g := Gate(rep, rep, 25); len(g.EnvMismatches) != 0 {
		t.Fatalf("identical reports flagged env mismatches: %v", g.EnvMismatches)
	}

	moved := *rep
	moved.Workers = rep.Workers + 3
	moved.Env.GOMAXPROCS = rep.Env.GOMAXPROCS + 1
	g := Gate(rep, &moved, 25)
	if !g.Pass() {
		t.Fatalf("env mismatch failed the gate: %+v", g.Regressions)
	}
	if len(g.EnvMismatches) != 2 {
		t.Fatalf("EnvMismatches = %v, want workers and gomaxprocs", g.EnvMismatches)
	}
	var buf bytes.Buffer
	g.Write(&buf, 25)
	out := buf.String()
	if !strings.Contains(out, "warning: environment differs from baseline") ||
		!strings.Contains(out, "workers") || !strings.Contains(out, "gomaxprocs") {
		t.Fatalf("gate report missing env warnings:\n%s", out)
	}
	if !strings.Contains(out, "PASS") {
		t.Fatalf("env warnings must not turn the verdict:\n%s", out)
	}
}

// TestGateSubset: a short-mode run against a full baseline compares the
// shared keys and records — but does not fail on — the missing ones.
func TestGateSubset(t *testing.T) {
	rep := tinyReport(t)
	subset := *rep
	subset.Results = append([]SuiteResult(nil), rep.Results[:3]...)
	g := Gate(rep, &subset, 25)
	if !g.Pass() {
		t.Fatalf("subset run failed the gate: %+v", g.Regressions)
	}
	if g.Compared != 3 {
		t.Fatalf("compared = %d, want 3", g.Compared)
	}
	if len(g.OnlyBaseline) != len(rep.Results)-3 {
		t.Fatalf("OnlyBaseline = %d keys, want %d", len(g.OnlyBaseline), len(rep.Results)-3)
	}

	extra := *rep
	extra.Results = append(append([]SuiteResult(nil), rep.Results...), SuiteResult{
		Matrix: "novel", Algorithm: "block-recursive", MedianNs: 1,
	})
	if g := Gate(rep, &extra, 25); !g.Pass() || len(g.OnlyCurrent) != 1 {
		t.Fatalf("new measurement mishandled: pass=%v only_current=%v", g.Pass(), g.OnlyCurrent)
	}
}

// TestDecodeReportRejects: wrong schema versions and foreign suites must
// not reach the gate.
func TestDecodeReportRejects(t *testing.T) {
	if _, err := DecodeReport(strings.NewReader(`{"schema":99,"suite":"sptrsv-suite"}`)); err == nil {
		t.Fatal("future schema accepted")
	}
	if _, err := DecodeReport(strings.NewReader(`{"schema":1,"suite":"other-suite"}`)); err == nil {
		t.Fatal("foreign suite accepted")
	}
	if _, err := DecodeReport(strings.NewReader(`{not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRobustStats(t *testing.T) {
	med, mad, min, mean := robustStats([]time.Duration{5, 1, 9, 3, 7})
	if med != 5 || min != 1 || mean != 5 {
		t.Fatalf("median/min/mean = %d/%d/%d, want 5/1/5", med, min, mean)
	}
	// |x-5| = {0,4,4,2,2} sorted {0,2,2,4,4} → median 2.
	if mad != 2 {
		t.Fatalf("mad = %d, want 2", mad)
	}

	med, mad, min, mean = robustStats([]time.Duration{4, 2, 8, 6})
	if med != 5 || mad != 2 || min != 2 || mean != 5 {
		t.Fatalf("even-length stats = %d/%d/%d/%d, want 5/2/2/5", med, mad, min, mean)
	}

	if med, mad, min, mean = robustStats(nil); med != 0 || mad != 0 || min != 0 || mean != 0 {
		t.Fatal("empty stats not zero")
	}
}

func TestDefaultReportName(t *testing.T) {
	if got := DefaultReportName("abc123def456"); got != "BENCH_abc123def456.json" {
		t.Fatalf("report name = %q", got)
	}
	if got := DefaultReportName(""); got != "BENCH_unknown.json" {
		t.Fatalf("empty-sha report name = %q", got)
	}
}

// TestSuiteExperiment: the "suite" experiment id renders the human table
// through the shared dispatch path.
func TestSuiteExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	p := fullParams(t)
	var buf bytes.Buffer
	if err := Run("suite", &buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"suite report", "suite-banded", "block-recursive", "median_ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("suite table missing %q:\n%s", want, out)
		}
	}
}

// TestExperimentTableConsistency pins the fix for the listed-but-
// undispatchable drift: every listed experiment resolves to a non-nil
// function through the one shared table, ids are unique, and unknown ids
// fail with the known list.
func TestExperimentTableConsistency(t *testing.T) {
	names := ExperimentNames()
	if len(names) != len(experiments) {
		t.Fatalf("ExperimentNames lists %d ids, table has %d", len(names), len(experiments))
	}
	seen := map[string]bool{}
	for i, e := range experiments {
		if e.ID == "" || e.Fn == nil {
			t.Fatalf("experiment %d (%q) is not dispatchable", i, e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if names[i] != e.ID {
			t.Fatalf("ExperimentNames[%d] = %q, table says %q", i, names[i], e.ID)
		}
	}
	if !seen["suite"] {
		t.Fatal("suite experiment not registered")
	}
	err := Run("no-such-experiment", nil, Params{})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("unknown id error = %v", err)
	}
	for _, id := range names {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("unknown-id error does not list %q: %v", id, err)
		}
	}
}

// matrixDigest is SHA-256 over rows, cols, RowPtr, ColIdx and the value
// bits, each as a little-endian uint64.
func matrixDigest(m *sparse.CSR[float64]) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(m.Rows))
	put(uint64(m.Cols))
	for _, p := range m.RowPtr {
		put(uint64(p))
	}
	for _, c := range m.ColIdx {
		put(uint64(c))
	}
	for _, v := range m.Val {
		put(math.Float64bits(v))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSuiteDigests pins the suite matrices at scale 0.1, the scale
// BENCH_baseline.json was recorded at and the benchmark's seed-4100
// inputs use. A generator change that alters any of them fails here
// instead of silently moving those numbers; re-pin only on purpose.
func TestSuiteDigests(t *testing.T) {
	want := map[string]string{
		"suite-banded":    "1d2372554154cf32635da93fe2af0a2c495d39bc6be2ff6cd504487aa4a56c6d",
		"suite-grid5":     "bbdfb834c1907e84267c1748de1305fe728de01029a7ea4cfad33ad58b936b73",
		"suite-bipartite": "1cae028adddd7a1f75c5b5c12efbb263cb1df87b39f85d99bee6403dabce5fbe",
		"suite-layered":   "81fb8f0bcd9ef080b2d7992b5432f66670251b55feead969dfe2a4d88c20df65",
		"suite-powerlaw":  "a9839506412a385b4e285202eb82d288942c8850ec2322c4c36e2d49f6a8a7b5",
		"suite-rmat":      "11ee5988a13b6b5a46a55f39dea20df24d66d14eb1dd994d4d75c54c664edea4",
		"suite-chain":     "abcd467aaa9c4571ffe239adedf616c711e8338266714dad931b307b6121b77e",
		"suite-ilu0":      "cd1d94b27e44b173d7b780db05f4885dfa35507858a8f634601681971ade7a16",
	}
	var changed []string
	var got strings.Builder
	seen := 0
	for _, e := range suiteEntries(0.1, false) {
		d := matrixDigest(e.Build())
		fmt.Fprintf(&got, "\t\t%q: %q,\n", e.Name, d)
		if want[e.Name] == d {
			seen++
		} else {
			changed = append(changed, e.Name)
		}
	}
	if len(changed) > 0 || seen != len(want) {
		t.Fatalf("suite matrices changed: %v (%d of %d pinned entries match)\nnew digests:\n%s",
			changed, seen, len(want), got.String())
	}
}

// TestSuiteEntriesDeterministic: two builds of each suite matrix at the
// pinned scale agree bit for bit, and each is a valid lower triangle. A
// TestSuiteDigests failure therefore means a generator changed, not that
// one draws differently from run to run.
func TestSuiteEntriesDeterministic(t *testing.T) {
	for _, e := range suiteEntries(0.1, false) {
		m := e.Build()
		if err := sparse.ValidateLower(m); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
		if a, b := matrixDigest(m), matrixDigest(e.Build()); a != b {
			t.Errorf("%s: two builds differ: %s vs %s", e.Name, a, b)
		}
	}
}

// TestSuiteEntriesFollowScale: every suite matrix is generated at the
// requested scale, so doubling the scale grows each one.
func TestSuiteEntriesFollowScale(t *testing.T) {
	small, large := suiteEntries(0.05, false), suiteEntries(0.1, false)
	if len(small) == 0 || len(small) != len(large) {
		t.Fatalf("%d entries at scale 0.05, %d at 0.1", len(small), len(large))
	}
	for i, e := range small {
		if a, b := e.Build().Rows, large[i].Build().Rows; b <= a {
			t.Errorf("%s: %d rows at scale 0.05, %d at 0.1", e.Name, a, b)
		}
	}
}
