package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of 1, 2 = %g, want 1.5", got)
	}
}

// TestRunSummarisesPairs writes three pairs of reports and checks each
// metric's line: the direction of "better" follows BENCHMARK.json, and a
// metric missing from a report is left out.
func TestRunSummarisesPairs(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	writeFile(t, specPath, `{"workloads":[{"name":"wide"}],"end_to_end":[
		{"name":"rel_latency_p50","better":"lower"},
		{"name":"rel_throughput","better":"higher"},
		{"name":"setup_s","better":"lower"}]}`)
	base := []float64{1.00, 1.10, 1.05}
	head := []float64{0.90, 0.95, 1.20}
	for i := range base {
		writeFile(t, filepath.Join(dir, fmt.Sprintf("base-%d.json", i+1)), report1(base[i], 1/base[i], i != 2))
		writeFile(t, filepath.Join(dir, fmt.Sprintf("head-%d.json", i+1)), report1(head[i], 1/head[i], true))
	}
	var out bytes.Buffer
	if err := run(&out, specPath, dir); err != nil {
		t.Fatal(err)
	}
	// Compare with runs of spaces folded, so the test pins the numbers,
	// not the column widths.
	var lines []string
	for _, line := range strings.Split(out.String(), "\n") {
		lines = append(lines, strings.Join(strings.Fields(line), " "))
	}
	got := strings.Join(lines, "\n")
	for _, want := range []string{
		"3 pairs",
		"wide rel_latency_p50 1.05 [1.025, 1.075] 0.95 [0.925, 1.075] 0.9048 [0.8636, 1.143] 2/3 0.1 vs 0.05, beyond spread, better",
		"wide rel_throughput 0.9524 [0.9307, 0.9762] 1.053 [0.943, 1.082] 1.105 [0.875, 1.158] 2/3 0.1003 vs 0.04545, beyond spread, better",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "setup_s") {
		t.Errorf("setup_s is missing from base-3.json but was summarised:\n%s", got)
	}
}

// TestRatioInterval: the bootstrap interval of the head/base median
// ratio is a point when every pair has the same ratio, lies between the
// smallest and largest pair ratios, holds the ratio of the medians on
// noisy pairs, and repeats exactly, since the bootstrap's seed is fixed.
func TestRatioInterval(t *testing.T) {
	base := []float64{1.0, 1.2, 0.9, 1.1, 1.05}
	double := make([]float64, len(base))
	for i, v := range base {
		double[i] = 2 * v
	}
	if lo, hi := ratioInterval(base, double); lo != 2 || hi != 2 {
		t.Errorf("head = 2·base: interval [%g, %g], want [2, 2]", lo, hi)
	}
	head := []float64{0.95, 0.98, 0.97, 1.01, 0.90}
	lo, hi := ratioInterval(base, head)
	if med := quantile(head, 0.5) / quantile(base, 0.5); !(lo <= med && med <= hi) {
		t.Errorf("interval [%g, %g] misses the ratio of the medians %g", lo, hi, med)
	}
	if lo < 0.90/1.2 || hi > 1.01/0.9 || lo >= hi {
		t.Errorf("interval [%g, %g] outside [%g, %g] or empty", lo, hi, 0.90/1.2, 1.01/0.9)
	}
	if lo2, hi2 := ratioInterval(base, head); lo2 != lo || hi2 != hi {
		t.Errorf("second call [%g, %g], first [%g, %g]: the bootstrap does not repeat", lo2, hi2, lo, hi)
	}
}

// report1 is a one-workload report; setup_s only when withSetup.
func report1(p50, thr float64, withSetup bool) string {
	setup := ""
	if withSetup {
		setup = `,"setup_s":{"value":0.01}`
	}
	return fmt.Sprintf(`{"workloads":{"wide":{"metrics":{"rel_latency_p50":{"value":%g},"rel_throughput":{"value":%g}%s}}}}`, p50, thr, setup)
}

func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}
