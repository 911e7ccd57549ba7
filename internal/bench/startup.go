package bench

// Cold vs warm startup measurement: the plan cache's headline number.
// The paper's preprocessing cost (§4.4) is amortised over repeated
// solves; the plan cache amortises it over process restarts too. This
// suite measures both sides — a cold Preprocess (full analysis) and a
// warm one (cache hit: decode the serialized plan) — per suite matrix,
// reported in the same versioned envelope as the throughput suite so
// trajectories are tracked the same way.

import (
	"fmt"
	"io"
	"os"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/block"
	xexec "github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/plancache"
)

// StartupSuiteName identifies a cold/warm startup report.
const StartupSuiteName = "sptrsv-startup"

// WarmSpeedupTarget is the informational acceptance bar: a warm plan
// load should beat a cold analysis by at least this factor on every
// suite matrix. StartupGate reports violations; the Makefile surfaces
// them without failing the build (startup ratios are machine-dependent).
const WarmSpeedupTarget = 5.0

// StartupResult is one matrix's cold/warm measurement. Medians over the
// repeats, same robust-statistics policy as SuiteResult.
type StartupResult struct {
	Matrix  string  `json:"matrix"`
	Group   string  `json:"group"`
	N       int     `json:"n"`
	NNZ     int     `json:"nnz"`
	Repeats int     `json:"repeats"`
	ColdNs  int64   `json:"cold_ns"` // median full analysis
	WarmNs  int64   `json:"warm_ns"` // median cache-hit plan load
	Speedup float64 `json:"speedup"` // cold / warm
}

// StartupConfig sizes a startup run.
type StartupConfig struct {
	// Scale multiplies corpus matrix sizes (0 = the suite default).
	Scale float64
	// Repeats is the number of timed preprocessings per side.
	Repeats int
	// Short trims the corpus like SuiteConfig.Short.
	Short bool
	// Workers is the pool size (0 = GOMAXPROCS).
	Workers int
	// Style selects the launcher.
	Style xexec.LaunchStyle
	// CacheDir backs the warm side's plan cache; empty uses a throwaway
	// temporary directory.
	CacheDir string
}

func (c StartupConfig) withDefaults() StartupConfig {
	if c.Scale <= 0 {
		c.Scale = DefaultSuiteConfig().Scale
	}
	if c.Repeats <= 0 {
		c.Repeats = 5
	}
	return c
}

// RunStartup measures cold analysis vs warm plan load over the suite
// corpus and returns the report with its Startup section filled.
func RunStartup(cfg StartupConfig) (*BenchReport, error) {
	cfg = cfg.withDefaults()
	dev := xexec.DefaultDevices()[1]
	dev.Name = "startup"
	dev.Style = cfg.Style
	if cfg.Workers > 0 {
		dev.Workers = cfg.Workers
	}
	pool := dev.Pool()
	defer xexec.CloseLauncher(pool)

	dir := cfg.CacheDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "plancache-startup-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	cache, err := plancache.Open(plancache.Config{Dir: dir})
	if err != nil {
		return nil, err
	}

	rep := &BenchReport{
		Schema:  ReportSchemaVersion,
		Suite:   StartupSuiteName,
		Short:   cfg.Short,
		Scale:   cfg.Scale,
		Repeats: cfg.Repeats,
		Workers: dev.Workers,
		Env:     captureEnv(),
	}
	for _, e := range suiteEntries(cfg.Scale, cfg.Short) {
		l := e.Build()
		cold := block.Defaults(dev)
		cold.Pool = pool
		cold.Thresholds = adapt.DefaultThresholds()
		warm := cold
		warm.PlanCache = cache

		coldSamples := make([]time.Duration, cfg.Repeats)
		for i := range coldSamples {
			t0 := time.Now()
			if _, err := block.Preprocess(l, cold); err != nil {
				return nil, fmt.Errorf("startup: cold %s: %w", e.Name, err)
			}
			coldSamples[i] = time.Since(t0)
		}
		// Populate the cache once, untimed, then measure pure hits.
		if _, err := block.Preprocess(l, warm); err != nil {
			return nil, fmt.Errorf("startup: warmup %s: %w", e.Name, err)
		}
		warmSamples := make([]time.Duration, cfg.Repeats)
		for i := range warmSamples {
			t0 := time.Now()
			if _, err := block.Preprocess(l, warm); err != nil {
				return nil, fmt.Errorf("startup: warm %s: %w", e.Name, err)
			}
			warmSamples[i] = time.Since(t0)
		}
		coldMed, _, _, _ := robustStats(coldSamples)
		warmMed, _, _, _ := robustStats(warmSamples)
		speedup := 0.0
		if warmMed > 0 {
			speedup = float64(coldMed) / float64(warmMed)
		}
		rep.Startup = append(rep.Startup, StartupResult{
			Matrix:  e.Name,
			Group:   e.Group,
			N:       l.Rows,
			NNZ:     l.NNZ(),
			Repeats: cfg.Repeats,
			ColdNs:  coldMed.Nanoseconds(),
			WarmNs:  warmMed.Nanoseconds(),
			Speedup: speedup,
		})
	}
	return rep, nil
}

// WriteStartupTable renders the startup section for humans.
func (r *BenchReport) WriteStartupTable(w io.Writer) {
	fmt.Fprintf(w, "startup report: %s @ %s (workers %d, scale %g, %d repeats)\n\n",
		r.Suite, r.Env.GitSHA, r.Workers, r.Scale, r.Repeats)
	t := newTable("matrix", "group", "n", "nnz", "cold_ms", "warm_ms", "speedup")
	for _, res := range r.Startup {
		t.add(res.Matrix, res.Group, fmt.Sprint(res.N), fmt.Sprint(res.NNZ),
			ms(time.Duration(res.ColdNs)), ms(time.Duration(res.WarmNs)),
			fmt.Sprintf("%.1fx", res.Speedup))
	}
	t.write(w)
}

// Startup is the experiment-table wrapper: run the cold/warm startup
// suite at the Params' scale/repeats and print the human-readable table.
func Startup(w io.Writer, p Params) error {
	var cfg StartupConfig
	if p.Scale > 0 {
		cfg.Scale = p.Scale
	}
	if p.Repeats > 0 {
		cfg.Repeats = p.Repeats
	}
	if len(p.Devices) > 0 {
		cfg.Workers = p.Devices[len(p.Devices)-1].Workers
		cfg.Style = p.Devices[len(p.Devices)-1].Style
	}
	rep, err := RunStartup(cfg)
	if err != nil {
		return err
	}
	rep.WriteStartupTable(w)
	return nil
}

// StartupGate checks every startup measurement against the warm-speedup
// target, returning a line per matrix below it. Informational: the
// caller decides whether to fail on violations.
func StartupGate(rep *BenchReport, target float64) []string {
	var slow []string
	for _, r := range rep.Startup {
		if r.Speedup < target {
			slow = append(slow, fmt.Sprintf("%s: warm %.1fx cold (target %.0fx)", r.Matrix, r.Speedup, target))
		}
	}
	return slow
}
