package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/trace"
)

// Breakdown dissects block solves with the tracing layer: every plan step
// of every measured solve is recorded, then folded into phase (triangular
// vs SpMV) and per-kernel time shares. It is the trace-recorder
// counterpart of Figure 4's aggregate instrumentation — same measurement,
// per-step resolution — and doubles as an end-to-end exercise of
// Options.Trace under a realistic load.
func Breakdown(w io.Writer, p Params) error {
	dev := p.Devices[len(p.Devices)-1]
	pool := dev.Pool()
	defer exec.CloseLauncher(pool)
	rep := gen.Representative6(p.Scale)
	csvRows := [][]string{{"matrix", "row_kind", "name", "calls", "total_ms", "per_solve_ms", "share"}}
	fmt.Fprintf(w, "Breakdown: solve time by phase and kernel on %s (%d solves per matrix)\n", dev, p.Repeats)
	for _, entry := range []gen.Entry{rep[2], rep[3]} { // kkt_power-like, fullchip-like
		l := entry.Build()
		o := block.Defaults(dev)
		o.Pool = pool
		o.Instrument = true
		rec := trace.NewStepRecorder(1 << 18)
		o.Trace = rec
		s, err := block.Preprocess(l, o)
		if err != nil {
			return err
		}
		b := gen.RandVec(l.Rows, 7)
		x := make([]float64, l.Rows)
		for i := 0; i < p.Warmup; i++ {
			s.Solve(b, x)
		}
		rec.Reset()
		s.ResetStats()
		for i := 0; i < p.Repeats; i++ {
			s.Solve(b, x)
		}
		sum := rec.Summarize()
		solves := sum.Solves
		if solves == 0 {
			solves = 1
		}
		total := sum.TriTime + sum.SpMVTime
		fmt.Fprintf(w, "\nmatrix %s (%s): %d steps traced over %d solves\n",
			entry.Name, gen.Describe(l), sum.Steps, sum.Solves)
		if d := rec.Dropped(); d > 0 {
			fmt.Fprintf(w, "(%d older steps were dropped by the bounded ring; shares cover the retained window)\n", d)
		}
		fmt.Fprintln(w)

		t := newTable("phase", "calls", "total ms", "ms/solve", "share")
		for _, ph := range []struct {
			name  string
			calls int64
			d     time.Duration
		}{
			{"triangular", sum.TriCalls, sum.TriTime},
			{"spmv", sum.SpMVCalls, sum.SpMVTime},
		} {
			t.add(ph.name, fmt.Sprint(ph.calls), ms(ph.d),
				ms(ph.d/time.Duration(solves)), share(ph.d, total))
			csvRows = append(csvRows, []string{entry.Name, "phase", ph.name,
				fmt.Sprint(ph.calls), ms(ph.d), ms(ph.d / time.Duration(solves)), share(ph.d, total)})
		}
		t.write(w)
		fmt.Fprintln(w)

		kt := newTable("kernel", "calls", "total ms", "share")
		for _, name := range sortedKernels(sum) {
			d := sum.KernelTime[name]
			kt.add(name, fmt.Sprint(sum.KernelCalls[name]), ms(d), share(d, total))
			csvRows = append(csvRows, []string{entry.Name, "kernel", name,
				fmt.Sprint(sum.KernelCalls[name]), ms(d), "", share(d, total)})
		}
		kt.write(w)

		tr := s.Traffic()
		fmt.Fprintf(w, "\ntraffic per solve: %d b-updates, %d x-loads (dense-equivalent)\n", tr.BUpdates, tr.XLoads)
		// The two measurements must agree: the trace is the same clock as
		// the aggregate stats, recorded per step instead of per phase.
		st := s.Stats()
		fmt.Fprintf(w, "cross-check vs aggregate stats: tri %v/%v, spmv %v/%v (trace/stats)\n",
			sum.TriTime.Round(time.Microsecond), st.TriTime.Round(time.Microsecond),
			sum.SpMVTime.Round(time.Microsecond), st.SpMVTime.Round(time.Microsecond))
	}
	fmt.Fprintln(w, "\nexpected shape: SpMV share grows with partition depth while the")
	fmt.Fprintln(w, "triangular share concentrates in the few serial-bottleneck leaves")
	return writeCSV(p.CSVDir, "breakdown", csvRows)
}

// sortedKernels orders a summary's kernels by descending total time.
func sortedKernels(sum trace.Summary) []string {
	names := make([]string, 0, len(sum.KernelTime))
	for name := range sum.KernelTime {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if sum.KernelTime[names[i]] != sum.KernelTime[names[j]] {
			return sum.KernelTime[names[i]] > sum.KernelTime[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

func share(d, total time.Duration) string {
	if total <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(d)/float64(total))
}
