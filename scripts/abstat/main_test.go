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
		"wide rel_latency_p50 1.05 [1.025, 1.075] 0.95 [0.925, 1.075] 2/3 0.1 vs 0.05, beyond spread, better",
		"wide rel_throughput 0.9524 [0.9307, 0.9762] 1.053 [0.943, 1.082] 2/3 0.1003 vs 0.04545, beyond spread, better",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "setup_s") {
		t.Errorf("setup_s is missing from base-3.json but was summarised:\n%s", got)
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
