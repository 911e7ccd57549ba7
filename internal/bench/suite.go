package bench

// The canonical benchmark suite: the repo's machine-readable perf
// trajectory. Where the experiment functions regenerate the paper's
// figures for humans, RunSuite measures a fixed-seed corpus spanning the
// paper's matrix classes with robust statistics and serialises the result
// to a versioned JSON schema, so any two runs — today's working tree vs a
// committed baseline, this machine vs CI — are directly comparable and a
// hot-path regression trips a gate instead of landing silently.
//
// The flow mirrors continuous-benchmarking practice in large Go systems:
//
//	make bench-json            # full suite → BENCH_<shortsha>.json
//	git add BENCH_baseline.json
//	...hack on the kernels...
//	sptrsvbench -suite -baseline BENCH_baseline.json -gate 25
//	                           # exit 1 if any matrix/algorithm pair got
//	                           # >25% slower beyond the noise band

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/core"
	xexec "github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// ReportSchemaVersion is the BenchReport JSON schema version. Bump it on
// any incompatible change; DecodeReport refuses reports it cannot read.
// History: v1 = throughput results only; v2 (additive) = optional
// "latency" section with service percentiles; v3 (additive) = optional
// "startup" section with cold-analysis vs warm-plan-load medians; v4
// (additive) = per-phase percentiles (queue-wait, coalesce-hold, solve)
// in latency entries, from the daemon's span-tracing headers. Every bump
// has been additive, so v1 reports still decode.
const ReportSchemaVersion = 4

// oldestReadableSchema is the floor of DecodeReport's compatibility
// window: every bump since it has been additive.
const oldestReadableSchema = 1

// reportSuiteName identifies this suite inside a BenchReport, so a report
// from a different suite is never gated against this one's baseline.
const reportSuiteName = "sptrsv-suite"

// LoadSuiteName identifies a daemon load-generator report (`sptrsvd
// -loadgen`): latency percentiles instead of solve medians, same
// envelope, same decoder.
const LoadSuiteName = "sptrsv-load"

// EnvInfo captures the environment a report was produced in — enough to
// judge whether two reports are comparable at all.
type EnvInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GitSHA     string `json:"git_sha"`
	Time       string `json:"time"` // RFC 3339, UTC
}

// SuiteResult is one (matrix, algorithm) measurement with robust
// statistics over the timed repetitions: the median is the headline
// number, the MAD (median absolute deviation from the median) is the
// noise band the gate respects, the min is the "best the hardware did".
type SuiteResult struct {
	Matrix       string  `json:"matrix"`
	Group        string  `json:"group"`
	Algorithm    string  `json:"algorithm"`
	N            int     `json:"n"`
	NNZ          int     `json:"nnz"`
	Repeats      int     `json:"repeats"`
	PreprocessNs int64   `json:"preprocess_ns"`
	MedianNs     int64   `json:"median_ns"`
	MADNs        int64   `json:"mad_ns"`
	MinNs        int64   `json:"min_ns"`
	MeanNs       int64   `json:"mean_ns"`
	GFlops       float64 `json:"gflops"` // 2·nnz / median solve time
}

// BenchReport is the versioned, machine-readable product of one suite
// run. It is what `sptrsvbench -suite -json` writes and what the
// regression gate consumes.
type BenchReport struct {
	Schema  int           `json:"schema"`
	Suite   string        `json:"suite"`
	Short   bool          `json:"short"`
	Scale   float64       `json:"scale"`
	Repeats int           `json:"repeats"`
	Warmup  int           `json:"warmup"`
	Workers int           `json:"workers"`
	Env     EnvInfo       `json:"env"`
	Results []SuiteResult `json:"results"`
	// Latency holds service-latency percentiles (schema ≥ 2, suite
	// LoadSuiteName); empty in throughput reports.
	Latency []LatencyResult `json:"latency,omitempty"`
	// Startup holds cold-vs-warm preprocessing medians (schema ≥ 3,
	// suite StartupSuiteName); empty elsewhere.
	Startup []StartupResult `json:"startup,omitempty"`
}

// SuiteConfig sizes a suite run. The zero value is not usable; start from
// DefaultSuiteConfig or fill every field.
type SuiteConfig struct {
	// Scale multiplies corpus matrix sizes, exactly like Params.Scale.
	Scale float64
	// Repeats is the number of timed solves per measurement.
	Repeats int
	// Warmup solves before timing.
	Warmup int
	// Short trims the corpus to one matrix per structural-class pair, for
	// quick CI gating against a full baseline (shared keys still compare).
	Short bool
	// Workers is the pool size (0 = GOMAXPROCS).
	Workers int
	// Style selects the launcher (zero value = the default spin pool).
	Style xexec.LaunchStyle
}

// DefaultSuiteConfig returns the canonical configuration: the committed
// baselines and the Makefile targets all use these numbers (Makefile
// flags override scale/repeats explicitly so the two stay in sync there).
func DefaultSuiteConfig() SuiteConfig {
	return SuiteConfig{Scale: 0.1, Repeats: 9, Warmup: 2}
}

func (c SuiteConfig) withDefaults() SuiteConfig {
	d := DefaultSuiteConfig()
	if c.Scale <= 0 {
		c.Scale = d.Scale
	}
	if c.Repeats <= 0 {
		c.Repeats = d.Repeats
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	return c
}

// suiteEntries is the fixed-seed suite corpus: one representative per
// structural class of the paper's dataset (§4.1), seeds disjoint from the
// figure corpus so suite timings are stable even if Corpus evolves. Order
// and names are part of the report schema — gate keys are matrix names.
// TestSuiteDigests pins what the generators produce at scale 0.1.
func suiteEntries(scale float64, short bool) []gen.Entry {
	sc := func(n int) int {
		s := int(float64(n) * scale)
		if s < 16 {
			s = 16
		}
		return s
	}
	rmatScale := 16 + int(math.Round(math.Log2(math.Max(scale, 1.0/64))))
	all := []gen.Entry{
		{Name: "suite-banded", Group: "fem",
			Build: func() *sparse.CSR[float64] { return gen.Banded(sc(120_000), 32, 0.25, 4101) }},
		{Name: "suite-grid5", Group: "pde",
			Build: func() *sparse.CSR[float64] {
				side := int(300 * math.Sqrt(scale))
				if side < 8 {
					side = 8
				}
				return gen.GridLaplacian5(side, side, 4102)
			}},
		{Name: "suite-bipartite", Group: "optimization",
			Build: func() *sparse.CSR[float64] { return gen.BipartiteBlock(sc(150_000), 16, 4103) }},
		{Name: "suite-layered", Group: "layered",
			Build: func() *sparse.CSR[float64] { return gen.Layered(sc(100_000), 512, 6, 0, 4104) }},
		{Name: "suite-powerlaw", Group: "circuit",
			Build: func() *sparse.CSR[float64] { return gen.PowerLaw(sc(80_000), 4, 0.01, 4105) }},
		{Name: "suite-rmat", Group: "network",
			Build: func() *sparse.CSR[float64] { return gen.RMAT(rmatScale, 2, 4106) }},
		{Name: "suite-chain", Group: "serial",
			Build: func() *sparse.CSR[float64] { return gen.SerialChain(sc(60_000), 0.3, 4107) }},
		{Name: "suite-ilu0", Group: "ilu",
			Build: func() *sparse.CSR[float64] {
				side := int(200 * math.Sqrt(scale))
				if side < 8 {
					side = 8
				}
				l, _, err := gen.ILU0(gen.SPDGridMatrix(side, side))
				if err != nil {
					panic(err) // the Laplacian cannot break down
				}
				return l
			}},
	}
	if short {
		// One per broad regime: banded (streaming), bipartite (wide
		// parallel), layered (level-bound), chain (serial-bound).
		return []gen.Entry{all[0], all[2], all[3], all[6]}
	}
	return all
}

// captureEnv records the execution environment of this process.
func captureEnv() EnvInfo {
	return EnvInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitSHA:     gitShortSHA(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitShortSHA best-effort resolves the working tree's HEAD; "unknown"
// when git or the repository is unavailable (e.g. an installed binary).
func gitShortSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// DefaultReportName is the canonical on-disk name for a report:
// BENCH_<shortsha>.json.
func DefaultReportName(sha string) string {
	if sha == "" {
		sha = "unknown"
	}
	return "BENCH_" + sha + ".json"
}

// robustStats folds raw per-repetition timings into the report's
// statistics: median, MAD (median absolute deviation from the median —
// the robust noise estimate), min and mean.
func robustStats(samples []time.Duration) (median, mad, min, mean time.Duration) {
	if len(samples) == 0 {
		return
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	median = s[len(s)/2]
	if len(s)%2 == 0 {
		median = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	min = s[0]
	var total time.Duration
	for _, x := range s {
		total += x
	}
	mean = total / time.Duration(len(s))
	dev := make([]time.Duration, len(s))
	for i, x := range s {
		d := x - median
		if d < 0 {
			d = -d
		}
		dev[i] = d
	}
	sort.Slice(dev, func(i, j int) bool { return dev[i] < dev[j] })
	mad = dev[len(dev)/2]
	if len(dev)%2 == 0 {
		mad = (dev[len(dev)/2-1] + dev[len(dev)/2]) / 2
	}
	return median, mad, min, mean
}

// sampleSolver runs warmup + repeated solves and returns every timed
// sample (timeSolver's mean/best are not enough for the robust stats).
func sampleSolver(s core.Solver[float64], b, x []float64, warmup, repeats int) []time.Duration {
	for i := 0; i < warmup; i++ {
		s.Solve(b, x)
	}
	if repeats < 1 {
		repeats = 1
	}
	out := make([]time.Duration, repeats)
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		s.Solve(b, x)
		out[i] = time.Since(t0)
	}
	return out
}

// RunSuite measures the fixed-seed suite corpus with the three compared
// algorithms and returns the machine-readable report. Determinism is
// favoured over peak numbers: default thresholds (the paper's cut points
// under the serial floor, no per-machine fitting), no per-block
// calibration, a single device.
func RunSuite(cfg SuiteConfig) (*BenchReport, error) {
	cfg = cfg.withDefaults()
	dev := xexec.DefaultDevices()[1]
	dev.Name = "suite"
	dev.Style = cfg.Style
	if cfg.Workers > 0 {
		dev.Workers = cfg.Workers
	}
	pool := dev.Pool()
	defer xexec.CloseLauncher(pool)

	bo := block.Defaults(dev)
	bo.Pool = pool
	bo.Thresholds = adapt.DefaultThresholds()
	c := core.Config{Device: dev, Pool: pool, Block: &bo}

	rep := &BenchReport{
		Schema:  ReportSchemaVersion,
		Suite:   reportSuiteName,
		Short:   cfg.Short,
		Scale:   cfg.Scale,
		Repeats: cfg.Repeats,
		Warmup:  cfg.Warmup,
		Workers: dev.Workers,
		Env:     captureEnv(),
	}
	for _, e := range suiteEntries(cfg.Scale, cfg.Short) {
		l := e.Build()
		b := gen.RandVec(l.Rows, 7)
		x := make([]float64, l.Rows)
		for _, name := range comparedAlgorithms() {
			t0 := time.Now()
			s, err := core.New(name, l, c)
			if err != nil {
				return nil, fmt.Errorf("suite: %s on %s: %w", name, e.Name, err)
			}
			prep := time.Since(t0)
			samples := sampleSolver(s, b, x, cfg.Warmup, cfg.Repeats)
			med, mad, min, mean := robustStats(samples)
			rep.Results = append(rep.Results, SuiteResult{
				Matrix:       e.Name,
				Group:        e.Group,
				Algorithm:    name,
				N:            l.Rows,
				NNZ:          l.NNZ(),
				Repeats:      len(samples),
				PreprocessNs: prep.Nanoseconds(),
				MedianNs:     med.Nanoseconds(),
				MADNs:        mad.Nanoseconds(),
				MinNs:        min.Nanoseconds(),
				MeanNs:       mean.Nanoseconds(),
				GFlops:       gflopsOf(l.NNZ(), med),
			})
		}
	}
	return rep, nil
}

// WriteJSON serialises the report, indented, with a trailing newline.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// DecodeReport reads a BenchReport and validates its schema header.
func DecodeReport(r io.Reader) (*BenchReport, error) {
	var rep BenchReport
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench report: %w", err)
	}
	if rep.Schema < oldestReadableSchema || rep.Schema > ReportSchemaVersion {
		return nil, fmt.Errorf("bench report: schema %d, this build reads %d..%d", rep.Schema, oldestReadableSchema, ReportSchemaVersion)
	}
	if rep.Suite != reportSuiteName && rep.Suite != LoadSuiteName && rep.Suite != StartupSuiteName {
		return nil, fmt.Errorf("bench report: suite %q, want %q, %q or %q", rep.Suite, reportSuiteName, LoadSuiteName, StartupSuiteName)
	}
	return &rep, nil
}

// ReadReportFile loads a BenchReport from disk.
func ReadReportFile(path string) (*BenchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeReport(f)
}

// WriteTable renders the report for humans: environment header plus one
// row per measurement.
func (r *BenchReport) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "suite report: %s @ %s (%s/%s, %s, GOMAXPROCS %d, workers %d, scale %g, %d repeats)\n\n",
		r.Suite, r.Env.GitSHA, r.Env.GOOS, r.Env.GOARCH, r.Env.GoVersion, r.Env.GOMAXPROCS, r.Workers, r.Scale, r.Repeats)
	t := newTable("matrix", "group", "algorithm", "n", "nnz", "prep_ms", "median_ms", "mad_ms", "min_ms", "gflops")
	for _, res := range r.Results {
		t.add(res.Matrix, res.Group, res.Algorithm,
			fmt.Sprint(res.N), fmt.Sprint(res.NNZ),
			ms(time.Duration(res.PreprocessNs)), ms(time.Duration(res.MedianNs)),
			ms(time.Duration(res.MADNs)), ms(time.Duration(res.MinNs)),
			fmt.Sprintf("%.3f", res.GFlops))
	}
	t.write(w)
}

// Suite is the experiment-table wrapper: run the canonical suite at the
// Params' scale/repeats and print the human-readable report.
func Suite(w io.Writer, p Params) error {
	cfg := DefaultSuiteConfig()
	if p.Scale > 0 {
		cfg.Scale = p.Scale
	}
	if p.Repeats > 0 {
		cfg.Repeats = p.Repeats
	}
	cfg.Warmup = p.Warmup
	if len(p.Devices) > 0 {
		cfg.Workers = p.Devices[len(p.Devices)-1].Workers
		cfg.Style = p.Devices[len(p.Devices)-1].Style
	}
	rep, err := RunSuite(cfg)
	if err != nil {
		return err
	}
	rep.WriteTable(w)
	return nil
}

// Regression is one gate violation: a (matrix, algorithm) pair whose
// current median exceeds the allowance derived from the baseline.
type Regression struct {
	Matrix     string
	Algorithm  string
	BaselineNs int64
	CurrentNs  int64
	AllowedNs  int64
	Ratio      float64 // current / baseline median
}

// GateResult is the outcome of comparing a current report to a baseline.
type GateResult struct {
	Compared     int
	Regressions  []Regression
	OnlyBaseline []string // keys present in the baseline only (informational)
	OnlyCurrent  []string // keys present in the current report only
	// EnvMismatches lists run-environment keys (workers, gomaxprocs, CPU
	// count, Go version) that differ between the two reports. Purely
	// informational: the numbers still gate, but a mismatch usually
	// explains a surprising verdict better than the kernels do.
	EnvMismatches []string
}

// Pass reports whether the gate is clean.
func (g GateResult) Pass() bool { return len(g.Regressions) == 0 }

// gateKey identifies a measurement across reports.
func gateKey(r SuiteResult) string { return r.Matrix + "/" + r.Algorithm }

// noiseBandMultiplier scales the combined MADs into the gate's noise
// allowance: a regression must clear the relative threshold AND exceed
// baseline median + 3·(MAD_base + MAD_cur), so a noisy measurement cannot
// trip the gate on jitter alone. The band is capped at half the baseline
// median — beyond that the measurement is too noisy to defend and the
// relative threshold must carry the tolerance, otherwise a sufficiently
// jittery baseline would wave any slowdown through.
const noiseBandMultiplier = 3

// Gate compares current against baseline: a (matrix, algorithm) pair
// regresses when its current median solve time exceeds the baseline
// median by more than gatePct percent and the excess is outside the
// combined noise band. Pairs present in only one report are recorded but
// never fail the gate (short-mode runs gate a subset of a full baseline).
func Gate(baseline, current *BenchReport, gatePct float64) GateResult {
	base := make(map[string]SuiteResult, len(baseline.Results))
	for _, r := range baseline.Results {
		base[gateKey(r)] = r
	}
	var g GateResult
	g.EnvMismatches = envMismatches(baseline, current)
	seen := make(map[string]bool, len(current.Results))
	for _, cur := range current.Results {
		k := gateKey(cur)
		seen[k] = true
		b, ok := base[k]
		if !ok {
			g.OnlyCurrent = append(g.OnlyCurrent, k)
			continue
		}
		g.Compared++
		noise := noiseBandMultiplier * float64(b.MADNs+cur.MADNs)
		if cap := float64(b.MedianNs) / 2; noise > cap {
			noise = cap
		}
		allowed := float64(b.MedianNs)*(1+gatePct/100) + noise
		if float64(cur.MedianNs) > allowed {
			ratio := 0.0
			if b.MedianNs > 0 {
				ratio = float64(cur.MedianNs) / float64(b.MedianNs)
			}
			g.Regressions = append(g.Regressions, Regression{
				Matrix:     cur.Matrix,
				Algorithm:  cur.Algorithm,
				BaselineNs: b.MedianNs,
				CurrentNs:  cur.MedianNs,
				AllowedNs:  int64(allowed),
				Ratio:      ratio,
			})
		}
	}
	for _, r := range baseline.Results {
		if k := gateKey(r); !seen[k] {
			g.OnlyBaseline = append(g.OnlyBaseline, k)
		}
	}
	sort.Slice(g.Regressions, func(i, j int) bool { return g.Regressions[i].Ratio > g.Regressions[j].Ratio })
	return g
}

// envMismatches compares the run environments of two reports, returning
// one "key: baseline=x current=y" line per differing key that affects
// comparability of the timings.
func envMismatches(baseline, current *BenchReport) []string {
	var m []string
	diff := func(key string, b, c any) {
		if b != c {
			m = append(m, fmt.Sprintf("%s: baseline=%v current=%v", key, b, c))
		}
	}
	diff("workers", baseline.Workers, current.Workers)
	diff("gomaxprocs", baseline.Env.GOMAXPROCS, current.Env.GOMAXPROCS)
	diff("num_cpu", baseline.Env.NumCPU, current.Env.NumCPU)
	diff("go_version", baseline.Env.GoVersion, current.Env.GoVersion)
	return m
}

// Write renders the gate outcome for humans.
func (g GateResult) Write(w io.Writer, gatePct float64) {
	for _, m := range g.EnvMismatches {
		fmt.Fprintf(w, "warning: environment differs from baseline — %s\n", m)
	}
	if g.Pass() {
		fmt.Fprintf(w, "perf gate PASS: %d measurements within %.0f%% of baseline (+%dx MAD noise band)\n",
			g.Compared, gatePct, noiseBandMultiplier)
	} else {
		fmt.Fprintf(w, "perf gate FAIL: %d of %d measurements regressed beyond %.0f%% (+%dx MAD noise band)\n\n",
			len(g.Regressions), g.Compared, gatePct, noiseBandMultiplier)
		t := newTable("matrix", "algorithm", "baseline_ms", "current_ms", "allowed_ms", "ratio")
		for _, r := range g.Regressions {
			t.add(r.Matrix, r.Algorithm,
				ms(time.Duration(r.BaselineNs)), ms(time.Duration(r.CurrentNs)),
				ms(time.Duration(r.AllowedNs)), fmt.Sprintf("%.2fx", r.Ratio))
		}
		t.write(w)
	}
	if len(g.OnlyBaseline) > 0 {
		fmt.Fprintf(w, "not re-measured (baseline only): %s\n", strings.Join(g.OnlyBaseline, ", "))
	}
	if len(g.OnlyCurrent) > 0 {
		fmt.Fprintf(w, "new measurements (no baseline): %s\n", strings.Join(g.OnlyCurrent, ", "))
	}
}
