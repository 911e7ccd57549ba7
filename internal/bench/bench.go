// Package bench is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (§4) on the goroutine execution
// substrate. Each experiment is a function writing a formatted report to
// an io.Writer; cmd/sptrsvbench exposes them by experiment id and
// bench_test.go wraps them in testing.B benchmarks.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/core"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Params configure a harness run. Zero value is not usable; start from
// DefaultParams.
type Params struct {
	// Scale multiplies corpus matrix sizes (1 = laptop-scale defaults).
	Scale float64
	// Repeats is the number of timed solves per measurement; the paper
	// runs 200, the default here is smaller so the suite stays quick.
	Repeats int
	// Warmup solves before timing.
	Warmup int
	// Devices are the execution profiles (Table 3 analogues).
	Devices []exec.Device
	// FitThresholds retunes the adaptive decision tree on this machine
	// before running the comparisons (the paper's own methodology: its
	// thresholds come from a 373k-sample sweep on the benchmark GPU).
	FitThresholds bool
	// CSVDir, when non-empty, receives machine-readable .csv files with
	// the data behind each figure (fig4, fig6, fig7).
	CSVDir string
}

// DefaultParams returns a configuration sized for an interactive run.
func DefaultParams() Params {
	d := exec.DefaultDevices()
	return Params{
		Scale:         0.25,
		Repeats:       5,
		Warmup:        1,
		Devices:       []exec.Device{d[0], d[1]},
		FitThresholds: true,
	}
}

// Measurement is one (matrix, algorithm, device) timing.
type Measurement struct {
	Matrix     string
	Group      string
	Algorithm  string
	Device     string
	N          int
	NNZ        int
	Preprocess time.Duration
	Solve      time.Duration // mean over repeats
	Best       time.Duration // fastest single solve
	GFlops     float64       // 2·nnz / mean solve time
}

// timeSolver runs warmup + repeated solves of s and returns mean and best.
func timeSolver[T sparse.Float](s core.Solver[T], b, x []T, warmup, repeats int) (mean, best time.Duration) {
	for i := 0; i < warmup; i++ {
		s.Solve(b, x)
	}
	if repeats < 1 {
		repeats = 1
	}
	best = time.Duration(math.MaxInt64)
	var total time.Duration
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		s.Solve(b, x)
		d := time.Since(t0)
		total += d
		if d < best {
			best = d
		}
	}
	return total / time.Duration(repeats), best
}

// measure preprocesses and times one algorithm on one matrix.
func measure(name string, dev exec.Device, pool exec.Launcher, l *sparse.CSR[float64],
	entry gen.Entry, cfg core.Config, p Params) (Measurement, error) {

	t0 := time.Now()
	s, err := core.New(name, l, cfg)
	if err != nil {
		return Measurement{}, fmt.Errorf("%s on %s: %w", name, entry.Name, err)
	}
	prep := time.Since(t0)
	b := gen.RandVec(l.Rows, 7)
	x := make([]float64, l.Rows)
	mean, best := timeSolver(s, b, x, p.Warmup, p.Repeats)
	return Measurement{
		Matrix:     entry.Name,
		Group:      entry.Group,
		Algorithm:  name,
		Device:     dev.Name,
		N:          l.Rows,
		NNZ:        l.NNZ(),
		Preprocess: prep,
		Solve:      mean,
		Best:       best,
		GFlops:     gflopsOf(l.NNZ(), mean),
	}, nil
}

func gflopsOf(nnz int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return 2 * float64(nnz) / d.Seconds() / 1e9
}

// deviceThresholds are the thresholds the corpus experiments run on dev:
// the defaults, or with FitThresholds a fit on a pool of dev's own.
func deviceThresholds(dev exec.Device, p Params) adapt.Thresholds {
	if !p.FitThresholds {
		return adapt.DefaultThresholds()
	}
	pool := dev.Pool()
	defer exec.CloseLauncher(pool)
	return fitThresholdsFor(pool, p)
}

// fitThresholdsFor runs a reduced Figure-5 sweep on the device and fits
// decision-tree cut points from it.
func fitThresholdsFor(pool exec.Launcher, p Params) adapt.Thresholds {
	rows := int(40000 * p.Scale)
	if rows < 2000 {
		rows = 2000
	}
	return adapt.QuickFit(pool, rows, max(2, p.Repeats/2), 501)
}

// bestTime runs fn repeats times and returns the fastest wall time.
func bestTime(repeats int, fn func()) time.Duration {
	if repeats < 1 {
		repeats = 1
	}
	best := time.Duration(math.MaxInt64)
	for r := 0; r < repeats; r++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// geoMean returns the geometric mean of positive values.
func geoMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// quartiles returns min, q1, median, q3, max of the values.
func quartiles(v []float64) (min, q1, med, q3, max float64) {
	if len(v) == 0 {
		return
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		frac := pos - float64(lo)
		if lo+1 < len(s) {
			return s[lo]*(1-frac) + s[lo+1]*frac
		}
		return s[lo]
	}
	return s[0], at(0.25), at(0.5), at(0.75), s[len(s)-1]
}

// table is a minimal aligned-column text table writer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.header)
	total := len(t.header)*2 - 2
	for _, wd := range widths {
		total += wd
	}
	for i := 0; i < total; i++ {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
	for _, r := range t.rows {
		line(r)
	}
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6)
}
