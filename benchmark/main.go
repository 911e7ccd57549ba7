// Command benchmark measures the shipped default configuration of the
// solver library and daemon end to end, on seeded workloads, and checks
// every sampled answer. Run it from the repository root:
//
//	bash benchmark/run.sh -workload deep -seed 4100 -seconds 25 -trace 0
//	bash benchmark/run.sh -workload all -seed 4100 -json .bench_build/a.json
//	bash benchmark/run.sh -compare .bench_build/a1.json,.bench_build/a2.json .bench_build/b1.json,.bench_build/b2.json
//
// With -trace 0 it reports the end-to-end metrics of BENCHMARK.json, with
// -trace 1 the per-layer ones. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics. The
// exit code is non-zero when any checked answer is wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	sptrsv "github.com/sss-lab/blocksptrsv"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a workload run in the schema of the line printed last.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is a workload run.
type result struct {
	outcome
	// Notes are raw times printed for readers beside the metrics; they
	// are not gated.
	Notes map[string]metric `json:"notes,omitempty"`
	// problems lists failed internal cross-checks; any entry makes the
	// run incorrect.
	problems []string
}

func newResult() *result {
	return &result{outcome: outcome{Correct: true, Metrics: map[string]metric{}}, Notes: map[string]metric{}}
}

func (r *result) note(name string, v float64, unit string) {
	r.Notes[name] = metric{Value: v, Unit: unit}
}

// set records a metric. An infinite value, a latency that includes failed
// requests, is clamped to the largest float so the output stays JSON; a
// NaN, a statistic of an empty sample, is a failed check.
func (r *result) set(name string, v float64, unit string) {
	switch {
	case math.IsInf(v, 1):
		v = math.MaxFloat64
	case math.IsNaN(v):
		r.problem("metric %s has no samples", name)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// observe counts one oracle outcome: an unchecked call changes nothing, a
// rejected answer is a failure and makes the run incorrect.
func (r *result) observe(checked, ok bool) {
	if checked && !ok {
		r.Failed++
		r.Correct = false
	}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.Correct = false
}

// environment records where a run happened, for -compare.
type environment struct {
	Seed          int64   `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Trace         int     `json:"trace"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"num_cpu"`
	KernelWorkers int     `json:"kernel_workers"`
	GoVersion     string  `json:"go_version"`
	GitSHA        string  `json:"git_sha"`
}

// report is the -json file: the environment and every workload run.
type report struct {
	Env       environment        `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: deep, wide, batch, serve or all")
		seed    = flag.Int64("seed", 4100, "input seed; 4100 reproduces the committed suite corpus")
		seconds = flag.Float64("seconds", 25, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 the per-layer metrics of a traced run")
		jsonOut = flag.String("json", "", "also write the environment and all results to this file")
		compare = flag.Bool("compare", false, "compare two sides, each a comma-separated list of -json files given as an argument, by their medians against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two lists of -json files, got %d arguments", flag.NArg()))
		}
		var sp spec
		if err := loadJSON(specPath, &sp); err != nil {
			fatal(err)
		}
		a, b := strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ",")
		if err := runCompare(os.Stdout, sp, a, b); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	rep := report{Env: captureEnv(*seed, *seconds, *trace), Workloads: map[string]*result{}}
	for _, n := range names {
		w, err := findWorkload(n)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s (seed %d, %gs, trace %d)\n", n, *seed, *seconds, *trace)
		res, err := runWorkload(w, *seed, 1, *seconds, *trace == 1)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", n, err))
		}
		printResult(n, res)
		rep.Workloads[n] = res
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, rep); err != nil {
			fatal(err)
		}
	}

	final := rep.Workloads[*name]
	if *name == "all" {
		final = merge(rep.Workloads)
	}
	line, err := json.Marshal(final.outcome)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

// runWorkload builds the workload's inputs from the seed, scaled by size,
// and runs it for the given number of seconds, traced or not.
func runWorkload(w workload, seed int64, size, seconds float64, traced bool) (*result, error) {
	mats := w.build(seed, size)
	switch {
	case traced:
		return runTraced(w, mats, serveInputs(seed, size), seconds, seed)
	case w.serve:
		return runServe(mats, seconds, seed)
	default:
		return runLibrary(w, mats, seconds, seed)
	}
}

// merge folds the runs of -workload all into one result whose metric
// names are prefixed with the workload.
func merge(runs map[string]*result) *result {
	out := newResult()
	for n, r := range runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, m := range r.Metrics {
			out.Metrics[n+"."+k] = m
		}
	}
	return out
}

func printResult(name string, r *result) {
	for _, group := range []map[string]metric{r.Metrics, r.Notes} {
		keys := make([]string, 0, len(group))
		for k := range group {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-6s %-44s %14.6g %s\n", name, k, group[k].Value, group[k].Unit)
		}
	}
	fmt.Printf("%-6s attempted %d  failed %d  correct %v\n", name, r.Attempted, r.Failed, r.Correct)
	for _, p := range r.problems {
		fmt.Printf("%-6s check failed: %s\n", name, p)
	}
}

func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func captureEnv(seed int64, seconds float64, trace int) environment {
	return environment{
		Seed:          seed,
		Seconds:       seconds,
		Trace:         trace,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		KernelWorkers: sptrsv.DefaultOptions(0).Workers,
		GoVersion:     runtime.Version(),
		GitSHA:        gitSHA(),
	}
}

// gitSHA names the checked-out commit when the working directory is the
// root of a git clone, and "unknown" otherwise.
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
