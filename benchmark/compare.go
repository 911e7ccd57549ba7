package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// specPath is the benchmark definition, relative to the repository root
// the program runs from. -compare takes the workloads, metrics and bounds
// from it.
const specPath = "BENCHMARK.json"

// specMetric is one metric declared in BENCHMARK.json. Per-layer metrics
// have no bound.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the program reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// side is one or more -json reports of the same code, reduced to the
// median of each (workload, metric) pair and, per workload, the total of
// attempts and failures.
type side struct {
	env               environment // of the first report
	runs              int
	metrics           map[string]map[string]float64 // workload → metric → median
	attempted, failed map[string]int64
}

// loadSide reads the reports of one side. They must all be traced or all
// untraced, since the two kinds report different metrics.
func loadSide(paths []string) (*side, error) {
	sd := &side{runs: len(paths), metrics: map[string]map[string]float64{},
		attempted: map[string]int64{}, failed: map[string]int64{}}
	values := map[string]map[string][]float64{}
	for i, path := range paths {
		var rep report
		if err := loadJSON(path, &rep); err != nil {
			return nil, err
		}
		if i == 0 {
			sd.env = rep.Env
		} else if rep.Env.Trace != sd.env.Trace {
			return nil, fmt.Errorf("%s has trace %d, %s has trace %d", path, rep.Env.Trace, paths[0], sd.env.Trace)
		}
		for wl, r := range rep.Workloads {
			if values[wl] == nil {
				values[wl] = map[string][]float64{}
			}
			for n, m := range r.Metrics {
				values[wl][n] = append(values[wl][n], m.Value)
			}
			sd.attempted[wl] += r.Attempted
			sd.failed[wl] += r.Failed
		}
	}
	for wl, byName := range values {
		sd.metrics[wl] = map[string]float64{}
		for n, v := range byName {
			sd.metrics[wl][n] = median(v)
		}
	}
	return sd, nil
}

// failedFrac is the share of a workload's attempts that failed, over every
// run of the side, so sides with different numbers of runs compare.
func (sd *side) failedFrac(wl string) float64 {
	return float64(sd.failed[wl]) / float64(max(sd.attempted[wl], 1))
}

// runCompare prints, for every workload and metric declared in sp, the
// median of each side and the relative change from a to b. Untraced sides
// are compared on the end-to-end metrics, traced ones on the per-layer
// metrics. It flags each pair where b is worse than a by more than the
// metric's bound, each pair or workload missing on either side, and each
// workload whose share of failed attempts rose. It fails when anything is
// flagged.
func runCompare(w io.Writer, sp spec, aPaths, bPaths []string) error {
	a, err := loadSide(aPaths)
	if err != nil {
		return err
	}
	b, err := loadSide(bPaths)
	if err != nil {
		return err
	}
	if a.env.Trace != b.env.Trace {
		return fmt.Errorf("side a has trace %d, side b trace %d", a.env.Trace, b.env.Trace)
	}
	declared := sp.EndToEnd
	if a.env.Trace == 1 {
		declared = sp.PerLayer
	}
	fmt.Fprintf(w, "a: %d runs, %s\nb: %d runs, %s\n", a.runs, describeEnv(a.env), b.runs, describeEnv(b.env))
	fmt.Fprintf(w, "%-6s %-44s %14s %14s %9s %7s\n", "", "metric", "a", "b", "b/a-1", "bound")
	flagged := 0
	for _, wl := range sp.Workloads {
		ma, mb := a.metrics[wl.Name], b.metrics[wl.Name]
		if ma == nil || mb == nil {
			fmt.Fprintf(w, "%-6s %-44s %14v %14v  MISSING\n", wl.Name, "(workload)", ma != nil, mb != nil)
			flagged++
			continue
		}
		for _, m := range declared {
			va, okA := ma[m.Name]
			vb, okB := mb[m.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-6s %-44s %14s %14s  MISSING\n", wl.Name, m.Name, present(okA, va), present(okB, vb))
				flagged++
				continue
			}
			line := fmt.Sprintf("%-6s %-44s %14.6g %14.6g %+8.1f%%", wl.Name, m.Name, va, vb, 100*(vb/va-1))
			if m.Bound > 0 {
				line += fmt.Sprintf(" %6.0f%%", 100*m.Bound)
				if worse(m.Better, va, vb) > m.Bound {
					line += "  OUTSIDE BOUND"
					flagged++
				}
			}
			fmt.Fprintln(w, line)
		}
		fa, fb := a.failedFrac(wl.Name), b.failedFrac(wl.Name)
		line := fmt.Sprintf("%-6s %-44s %14.6g %14.6g", wl.Name, "failed share of attempts", fa, fb)
		if fb > fa {
			line += "  ROSE"
			flagged++
		}
		fmt.Fprintln(w, line)
	}
	if flagged > 0 {
		return fmt.Errorf("%d pairs missing or outside their bounds", flagged)
	}
	fmt.Fprintln(w, "every pair within its bound")
	return nil
}

// present formats a median, or "-" for a metric a side did not report.
func present(ok bool, v float64) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.6g", v)
}

// worse is how much worse b is than a, as a share of a, for a metric
// where better is "lower" or "higher"; negative when b is better.
func worse(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func describeEnv(e environment) string {
	return fmt.Sprintf("seed %d, %gs, trace %d, GOMAXPROCS %d, NumCPU %d, kernel workers %d, %s, commit %s",
		e.Seed, e.Seconds, e.Trace, e.GOMAXPROCS, e.NumCPU, e.KernelWorkers, e.GoVersion, e.GitSHA)
}
