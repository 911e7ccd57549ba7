// sptrsvbench regenerates the tables and figures of the paper's
// evaluation section on this machine, and runs the canonical benchmark
// suite that tracks the repo's performance trajectory.
//
// Usage:
//
//	sptrsvbench -experiment all
//	sptrsvbench -experiment fig6,table5 -scale 0.5 -repeats 10
//	sptrsvbench -suite -json BENCH_baseline.json
//	sptrsvbench -suite -short -baseline BENCH_baseline.json -gate 25
//
// Experiments: table1 table2 table3 fig4 fig5 fig6 fig7 table4 table5.
// In -suite mode the fixed-seed suite corpus is measured with robust
// statistics, a versioned JSON report is written, and -baseline compares
// against a previous report: the process exits non-zero when any
// (matrix, algorithm) median regresses by more than -gate percent beyond
// the noise band.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/bench"
	"github.com/sss-lab/blocksptrsv/internal/exec"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "comma-separated experiment ids, or 'all'")
		scale      = flag.Float64("scale", 0.25, "corpus size multiplier (1.0 ≈ laptop-scale, paper ≈ 10-50)")
		repeats    = flag.Int("repeats", 5, "timed solves per measurement (paper uses 200)")
		warmup     = flag.Int("warmup", 1, "warmup solves before timing")
		fit        = flag.Bool("fit", true, "fit kernel-selection thresholds on this machine first")
		csvDir     = flag.String("csvdir", "", "directory for machine-readable figure data (.csv); empty disables")
		workersS   = flag.Int("workers-small", 0, "worker count of the small device (0 = 2/3 of GOMAXPROCS)")
		workersL   = flag.Int("workers-large", 0, "worker count of the large device (0 = GOMAXPROCS)")
		launcher   = flag.String("launcher", "spin", "launch style for both devices: spin or spawn")
		list       = flag.Bool("list", false, "list experiments and exit")

		suite    = flag.Bool("suite", false, "run the canonical benchmark suite instead of paper experiments")
		short    = flag.Bool("short", false, "with -suite: measure the trimmed corpus (one matrix per structural-class pair)")
		jsonPath = flag.String("json", "", "with -suite: write the JSON report here (default BENCH_<gitsha>.json)")
		baseline = flag.String("baseline", "", "with -suite: gate the run against this baseline report and exit non-zero on regression")
		gatePct  = flag.Float64("gate", 25, "with -baseline: allowed median slowdown in percent, beyond the noise band")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.ExperimentNames() {
			fmt.Println(id)
		}
		return
	}

	devs := exec.DefaultDevices()
	if *workersS > 0 {
		devs[0].Workers = *workersS
	}
	if *workersL > 0 {
		devs[1].Workers = *workersL
	}
	style, err := exec.ParseLaunchStyle(*launcher)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sptrsvbench: %v\n", err)
		os.Exit(2)
	}
	devs[0].Style = style
	devs[1].Style = style

	if *suite {
		cfg := bench.DefaultSuiteConfig()
		// The experiment flags default to experiment-sized values; only an
		// explicit flag overrides the suite's canonical configuration.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scale":
				cfg.Scale = *scale
			case "repeats":
				cfg.Repeats = *repeats
			case "warmup":
				cfg.Warmup = *warmup
			}
		})
		cfg.Short = *short
		cfg.Workers = devs[1].Workers
		cfg.Style = style
		rep, err := bench.RunSuite(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sptrsvbench: suite: %v\n", err)
			os.Exit(1)
		}
		rep.WriteTable(os.Stdout)
		path := *jsonPath
		if path == "" {
			path = bench.DefaultReportName(rep.Env.GitSHA)
		}
		if err := writeReport(path, rep); err != nil {
			fmt.Fprintf(os.Stderr, "sptrsvbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", path)
		if *baseline != "" {
			base, err := bench.ReadReportFile(*baseline)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sptrsvbench: baseline: %v\n", err)
				os.Exit(1)
			}
			res := bench.Gate(base, rep, *gatePct)
			res.Write(os.Stdout, *gatePct)
			if !res.Pass() {
				os.Exit(1)
			}
		}
		return
	}

	p := bench.Params{
		Scale:         *scale,
		Repeats:       *repeats,
		Warmup:        *warmup,
		Devices:       []exec.Device{devs[0], devs[1]},
		FitThresholds: *fit,
		CSVDir:        *csvDir,
	}

	ids := bench.ExperimentNames()
	if *experiment != "all" {
		ids = strings.Split(*experiment, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		fmt.Printf("================ %s ================\n", id)
		t0 := time.Now()
		if err := bench.Run(id, os.Stdout, p); err != nil {
			fmt.Fprintf(os.Stderr, "sptrsvbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
}

func writeReport(path string, rep *bench.BenchReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
