package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/core"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
)

// launchStyles are the launch mechanisms compared by the launch
// experiment, in the order they appear in the report.
func launchStyles() []exec.LaunchStyle {
	return []exec.LaunchStyle{exec.LaunchSpawn, exec.LaunchSpin}
}

// LaunchOverhead quantifies the cost model at the heart of the paper: the
// per-launch latency of each launcher style, and what that latency does to
// end-to-end solve time on launch-bound (high level-count) matrices. It is
// the harness counterpart of BenchmarkLaunchOverhead in internal/exec.
func LaunchOverhead(w io.Writer, p Params) error {
	// Part 1: bare per-launch latency per style per device profile.
	fmt.Fprintln(w, "Launch overhead: per-launch latency of the launcher styles")
	fmt.Fprintln(w, "(empty full-width ParallelFor, best of 3 rounds)")
	fmt.Fprintln(w)
	t := newTable("device", "workers", "spawn ns", "spin ns", "spawn/spin")
	for _, dev := range p.Devices {
		row := []string{dev.Name, fmt.Sprint(dev.Workers)}
		costs := map[exec.LaunchStyle]time.Duration{}
		for _, st := range launchStyles() {
			l := exec.NewLauncher(st, dev.Workers)
			costs[st] = exec.MeasureLaunchCost(l, 256)
			exec.CloseLauncher(l)
		}
		for _, st := range launchStyles() {
			row = append(row, fmt.Sprint(costs[st].Nanoseconds()))
		}
		ratio := 0.0
		if costs[exec.LaunchSpin] > 0 {
			ratio = float64(costs[exec.LaunchSpawn]) / float64(costs[exec.LaunchSpin])
		}
		row = append(row, fmt.Sprintf("%.1fx", ratio))
		t.add(row...)
	}
	t.write(w)

	// Part 2: end-to-end solves on the launch-bound matrices — the deep
	// near-serial chain (tmt_sym analogue) and the thousands-of-levels
	// Stokes analogue — with the launch-heavy level-set baseline and the
	// block solver, per style. The level-set baseline pays one launch per
	// level, so it isolates launch latency; the block solver shows how
	// much of that survives the paper's level-merging machinery.
	dev := p.Devices[len(p.Devices)-1]
	rep := gen.Representative6(p.Scale)
	entries := []gen.Entry{rep[4], rep[5]} // vas_stokes-like, tmt_sym-like
	for _, e := range entries {
		l := e.Build()
		st := levelset.FromLowerCSR(l).Stats()
		fmt.Fprintf(w, "\nmatrix %s: n=%d nnz=%d levels=%d (avg width %.1f) on %s\n\n",
			e.Name, l.Rows, l.NNZ(), st.NLevels, st.AvgWidth, dev)
		tt := newTable("algorithm", "spawn ms", "spin ms", "spawn/spin", "launches")
		for _, name := range []string{core.LevelSet, core.CuSparseLike, core.BlockRecursive} {
			row := []string{name}
			times := map[exec.LaunchStyle]time.Duration{}
			var launches int64
			for _, style := range launchStyles() {
				d := dev
				d.Style = style
				pool := d.Pool()
				cfg := core.Config{Device: d, Pool: pool}
				bo := block.Defaults(d)
				bo.Pool = pool
				cfg.Block = &bo
				s, err := core.New(name, l, cfg)
				if err != nil {
					exec.CloseLauncher(pool)
					return err
				}
				b := gen.RandVec(l.Rows, 7)
				x := make([]float64, l.Rows)
				mean, _ := timeSolver(s, b, x, p.Warmup, p.Repeats)
				times[style] = mean
				pool.ResetLaunches()
				s.Solve(b, x)
				launches = pool.Launches()
				exec.CloseLauncher(pool)
			}
			for _, style := range launchStyles() {
				row = append(row, ms(times[style]))
			}
			ratio := 0.0
			if times[exec.LaunchSpin] > 0 {
				ratio = times[exec.LaunchSpawn].Seconds() / times[exec.LaunchSpin].Seconds()
			}
			row = append(row, fmt.Sprintf("%.2fx", ratio), fmt.Sprint(launches))
			tt.add(row...)
		}
		tt.write(w)
	}
	fmt.Fprintln(w, "\nexpected shape: spin at or ahead of spawn, with the gap")
	fmt.Fprintln(w, "widening as launches per solve grow (level-set on deep matrices)")
	return nil
}
