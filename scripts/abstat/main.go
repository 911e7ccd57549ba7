// Command abstat summarises the interleaved A/B pairs scripts/ab.sh runs:
// for every workload and end-to-end metric of BENCHMARK.json it prints
// each side's median and quartiles over its runs, the head/base ratio of
// the medians with its 95% percentile-bootstrap interval over the pairs,
// how many pairs the head read better in, and whether the two medians lie
// further apart than the base's Q1–Q3 spread. These are the numbers a
// claimed gain is judged on. The bootstrap draws from a fixed seed, so
// the same reports print the same intervals.
// It reads the reports the script writes, base-<i>.json and head-<i>.json
// in one directory, pairs them by i, and skips a metric a report lacks.
// Run it from the repository root, where it reads BENCHMARK.json:
//
//	go run ./scripts/abstat <report dir>
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json abstat reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"end_to_end"`
}

// report is the part of a benchmark -json report abstat reads: workload →
// metric → value.
type report struct {
	Workloads map[string]struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"workloads"`
}

// specPath is the benchmark definition, relative to the repository root.
const specPath = "BENCHMARK.json"

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: abstat <report dir>")
		os.Exit(2)
	}
	if err := run(os.Stdout, specPath, os.Args[1]); err != nil {
		fmt.Fprintln(os.Stderr, "abstat:", err)
		os.Exit(1)
	}
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadPairs reads base-<i>.json and head-<i>.json for i = 1, 2, … up to
// the first i missing either report.
func loadPairs(dir string) (base, head []report, err error) {
	for i := 1; ; i++ {
		var b, h report
		bp, hp := filepath.Join(dir, fmt.Sprintf("base-%d.json", i)), filepath.Join(dir, fmt.Sprintf("head-%d.json", i))
		if _, err := os.Stat(bp); err != nil {
			break
		}
		if _, err := os.Stat(hp); err != nil {
			break
		}
		if err := readJSON(bp, &b); err != nil {
			return nil, nil, err
		}
		if err := readJSON(hp, &h); err != nil {
			return nil, nil, err
		}
		base, head = append(base, b), append(head, h)
	}
	if len(base) == 0 {
		return nil, nil, fmt.Errorf("no base-1.json and head-1.json pair in %s", dir)
	}
	return base, head, nil
}

func run(w io.Writer, specPath, dir string) error {
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		return err
	}
	base, head, err := loadPairs(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d pairs; median [Q1, Q3] per side; head/base: ratio of the medians [95%% bootstrap interval over the pairs]; better: pairs where head beats base; moved: |head - base| of the medians against the base's Q3 - Q1\n", len(base))
	fmt.Fprintf(w, "%-6s %-16s %28s %28s %28s %7s  %s\n", "", "metric", "base", "head", "head/base", "better", "moved")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			bv, hv := values(base, wl.Name, m.Name), values(head, wl.Name, m.Name)
			if len(bv) != len(base) || len(hv) != len(head) {
				continue
			}
			s := summarise(bv, hv, m.Better == "higher")
			fmt.Fprintf(w, "%-6s %-16s %28s %28s %28s %4d/%-2d  %s\n", wl.Name, m.Name,
				fmtQuartiles(s.base), fmtQuartiles(s.head), fmtRatio(s), s.better, len(bv), s.verdict())
		}
	}
	return nil
}

// values collects one metric of one workload over reports, skipping
// reports that lack it.
func values(reps []report, wl, metric string) []float64 {
	var v []float64
	for _, r := range reps {
		if m, ok := r.Workloads[wl].Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// quartiles are a sample's Q1, median and Q3.
type quartiles struct{ q1, med, q3 float64 }

// summary is one metric's comparison over paired runs.
type summary struct {
	base, head     quartiles
	lo, hi         float64 // bootstrap interval of head.med / base.med
	better         int     // pairs where head beats base
	higherIsBetter bool
}

func summarise(base, head []float64, higherIsBetter bool) summary {
	s := summary{base: quartilesOf(base), head: quartilesOf(head), higherIsBetter: higherIsBetter}
	s.lo, s.hi = ratioInterval(base, head)
	for i := range base {
		if (higherIsBetter && head[i] > base[i]) || (!higherIsBetter && head[i] < base[i]) {
			s.better++
		}
	}
	return s
}

// verdict says how far the medians moved, against the base's spread, and
// which way.
func (s summary) verdict() string {
	moved, spread := s.head.med-s.base.med, s.base.q3-s.base.q1
	out := fmt.Sprintf("%.4g vs %.4g", math.Abs(moved), spread)
	if math.Abs(moved) <= spread {
		return out + ", within spread"
	}
	if (moved > 0) == s.higherIsBetter {
		return out + ", beyond spread, better"
	}
	return out + ", beyond spread, worse"
}

// The bootstrap behind ratioInterval: its resample count and its fixed
// seed.
const (
	bootstrapResamples = 2000
	bootstrapSeed      = 1
)

// ratioInterval is the 95% percentile-bootstrap interval of the head/base
// ratio of the medians: it resamples the pairs with replacement, keeping
// each pair's two runs together, and returns the 2.5th and 97.5th
// percentiles of the resampled ratios. Every call draws from the same
// seed.
func ratioInterval(base, head []float64) (lo, hi float64) {
	rng := rand.New(rand.NewSource(bootstrapSeed))
	b, h := make([]float64, len(base)), make([]float64, len(head))
	ratios := make([]float64, bootstrapResamples)
	for i := range ratios {
		for j := range b {
			p := rng.Intn(len(base))
			b[j], h[j] = base[p], head[p]
		}
		ratios[i] = quantile(h, 0.5) / quantile(b, 0.5)
	}
	return quantile(ratios, 0.025), quantile(ratios, 0.975)
}

func fmtRatio(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.head.med/s.base.med, s.lo, s.hi)
}

func fmtQuartiles(q quartiles) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q.med, q.q1, q.q3)
}

func quartilesOf(xs []float64) quartiles {
	return quartiles{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

// quantile interpolates linearly between the closest ranks, as the
// benchmark's own medians do.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
