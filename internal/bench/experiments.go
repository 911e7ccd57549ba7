package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/core"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// experiments is the single source of truth for the runnable experiments,
// in paper order: ExperimentNames and Run both derive from it, so an
// experiment cannot be listed without being dispatchable (or the other
// way round) — the drift the old hand-maintained switch allowed.
var experiments = []struct {
	ID string
	Fn func(io.Writer, Params) error
}{
	{"table1", Table1},
	{"table2", Table2},
	{"table3", Table3},
	{"fig4", Figure4},
	{"fig5", Figure5},
	{"fig6", Figure6},
	{"fig7", Figure7},
	{"table4", Table4},
	{"table5", Table5},
	{"ablation", Ablation},
	{"scaling", Scaling},
	{"launch", LaunchOverhead},
	{"breakdown", Breakdown},
	{"suite", Suite},
}

// ExperimentNames lists the runnable experiment ids in paper order.
func ExperimentNames() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.ID
	}
	return out
}

// Run dispatches one experiment by id.
func Run(id string, w io.Writer, p Params) error {
	for _, e := range experiments {
		if e.ID == id {
			return e.Fn(w, p)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q (known: %v)", id, ExperimentNames())
}

// paperTree is the default decision tree with the serial floor off. The
// experiments that sweep the partition shape (Tables 1–2, Figure 4, the
// recursion-depth ablation) use it: with the floor on, the recursion
// stops wherever a range selects the serial kernel, so the part count no
// longer follows MaxDepth.
func paperTree() adapt.Thresholds {
	th := adapt.DefaultThresholds()
	th.TriParallelMinWork = 0
	return th
}

// trafficTable renders Table 1 or Table 2: the closed forms evaluated at
// the paper's part counts, plus a measured verification on a dense
// triangle (the measured counters must equal the formulas exactly).
func trafficTable(w io.Writer, p Params, title string,
	formula func(block.Kind, float64, int) float64,
	measured func(*block.Solver[float64]) int64) error {

	fmt.Fprintf(w, "%s (values in units of n; x = log2(parts))\n\n", title)
	t := newTable("method", "4 parts", "16 parts", "256 parts", "65536 parts")
	for _, kind := range []block.Kind{block.ColumnBlock, block.RowBlock, block.Recursive} {
		row := []string{kind.String() + " block"}
		for _, x := range []int{2, 4, 8, 16} {
			row = append(row, fmt.Sprintf("%.4gn", formula(kind, 1, x)))
		}
		t.add(row...)
	}
	t.write(w)

	// Verification on a dense triangle: measured == formula.
	n := 256
	l := gen.DenseLower(n, 99)
	fmt.Fprintf(w, "\nverification on a dense %d-row triangle (measured vs formula):\n\n", n)
	v := newTable("method", "parts", "measured", "formula", "match")
	for _, kind := range []block.Kind{block.ColumnBlock, block.RowBlock, block.Recursive} {
		for _, x := range []int{1, 2, 3, 4} {
			o := block.Options{Workers: 1, Kind: kind, MinBlockRows: 1, Thresholds: paperTree()}
			if kind == block.Recursive {
				o.MaxDepth = x
			} else {
				o.NSeg = 1 << x
			}
			s, err := block.Preprocess(l, o)
			if err != nil {
				return err
			}
			got := measured(s)
			want := formula(kind, float64(n), x)
			match := "OK"
			if float64(got) != want {
				match = "MISMATCH"
			}
			v.add(kind.String(), fmt.Sprint(1<<x), fmt.Sprint(got), fmt.Sprintf("%.0f", want), match)
		}
	}
	v.write(w)
	return nil
}

// Table1 reproduces the paper's Table 1: items updated in b.
func Table1(w io.Writer, p Params) error {
	return trafficTable(w, p, "Table 1: items updated in right-hand side b",
		block.FormulaBUpdates,
		func(s *block.Solver[float64]) int64 { return s.Traffic().BUpdates })
}

// Table2 reproduces the paper's Table 2: items loaded from x.
func Table2(w io.Writer, p Params) error {
	return trafficTable(w, p, "Table 2: items loaded from solution vector x",
		block.FormulaXLoads,
		func(s *block.Solver[float64]) int64 { return s.Traffic().XLoads })
}

// Table3 lists the execution profiles and algorithms, the analogue of the
// paper's platform table.
func Table3(w io.Writer, p Params) error {
	fmt.Fprintln(w, "Table 3: devices (goroutine analogues of the paper's GPUs) and algorithms")
	fmt.Fprintln(w)
	t := newTable("device", "workers", "min block rows", "stands in for")
	standsFor := []string{"Titan X (Pascal), 3072 cores", "Titan RTX (Turing), 4608 cores"}
	for i, d := range p.Devices {
		sf := ""
		if i < len(standsFor) {
			sf = standsFor[i]
		}
		t.add(d.Name, fmt.Sprint(d.Workers), fmt.Sprint(d.MinBlockRows()), sf)
	}
	t.write(w)
	fmt.Fprintln(w)
	a := newTable("algorithm", "role")
	a.add(core.CuSparseLike, "baseline: cuSPARSE v2 stand-in (merged level-set)")
	a.add(core.SyncFree, "baseline: Liu et al. sync-free")
	a.add(core.BlockRecursive, "this work: recursive block algorithm")
	a.write(w)
	return nil
}

// Figure4 reproduces Figure 4: the SpMV-phase time of the three block
// algorithms as the partition count grows, on the kkt_power-like and
// FullChip-like matrices.
func Figure4(w io.Writer, p Params) error {
	dev := p.Devices[len(p.Devices)-1]
	pool := dev.Pool()
	defer exec.CloseLauncher(pool)
	rep := gen.Representative6(p.Scale)
	csvRows := [][]string{{"matrix", "parts", "kind", "spmv_ms"}}
	fmt.Fprintf(w, "Figure 4: SpMV time (ms per solve) of the three block algorithms on %s\n", dev)
	for _, entry := range []gen.Entry{rep[2], rep[3]} { // kkt_power-like, fullchip-like
		l := entry.Build()
		fmt.Fprintf(w, "\nmatrix %s (%s)\n\n", entry.Name, gen.Describe(l))
		t := newTable("parts", "column", "row", "recursive")
		for _, x := range []int{1, 2, 3, 4, 5, 6} {
			parts := 1 << x
			row := []string{fmt.Sprint(parts)}
			for _, kind := range []block.Kind{block.ColumnBlock, block.RowBlock, block.Recursive} {
				o := block.Options{
					Pool: pool, Kind: kind, Reorder: kind == block.Recursive,
					MinBlockRows: 1, Instrument: true, Thresholds: paperTree(),
				}
				if kind == block.Recursive {
					o.MaxDepth = x
				} else {
					o.NSeg = parts
				}
				s, err := block.Preprocess(l, o)
				if err != nil {
					return err
				}
				b := gen.RandVec(l.Rows, 7)
				xv := make([]float64, l.Rows)
				for i := 0; i < p.Warmup; i++ {
					s.Solve(b, xv)
				}
				s.ResetStats()
				for i := 0; i < p.Repeats; i++ {
					s.Solve(b, xv)
				}
				st := s.Stats()
				perSolve := time.Duration(0)
				if st.Solves > 0 {
					perSolve = st.SpMVTime / time.Duration(st.Solves)
				}
				row = append(row, ms(perSolve))
				csvRows = append(csvRows, []string{entry.Name, fmt.Sprint(parts), kind.String(), ms(perSolve)})
			}
			t.add(row...)
		}
		t.write(w)
	}
	fmt.Fprintln(w, "\nexpected shape: recursive stays at or below column and row as parts grow")
	return writeCSV(p.CSVDir, "fig4", csvRows)
}

// Figure5 reproduces Figure 5: the best-kernel heatmaps over the feature
// grids, plus the thresholds fitted from them.
func Figure5(w io.Writer, p Params) error {
	dev := p.Devices[len(p.Devices)-1]
	pool := dev.Pool()
	defer exec.CloseLauncher(pool)
	rows := int(40000 * p.Scale)
	if rows < 2000 {
		rows = 2000
	}
	nnzAxis := []int{1, 2, 4, 8, 16, 32, 64}
	levAxis := []int{2, 8, 32, 128, 512, 2048, 8192, 32768}
	fmt.Fprintf(w, "Figure 5(a): best SpTRSV kernel per (nnz/row x nlevels), blocks of %d rows on %s\n", rows, dev)
	fmt.Fprintln(w, "legend: P=completely-parallel L=level-set S=sync-free C=cusparse-like")
	fmt.Fprintln(w)
	tri := adapt.TuneTri(pool, rows, nnzAxis, levAxis, p.Repeats, 601)
	t := newTable(append([]string{"nnz/row \\ nlevels"}, intsToStrings(levAxis)...)...)
	idx := 0
	for _, d := range nnzAxis {
		row := []string{fmt.Sprint(d)}
		for range levAxis {
			row = append(row, triLetter(tri[idx].Best))
			idx++
		}
		t.add(row...)
	}
	t.write(w)

	emptyAxis := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9}
	fmt.Fprintf(w, "\nFigure 5(b): best SpMV kernel per (nnz/row x emptyratio)\n")
	fmt.Fprintln(w, "legend: s=scalar-csr v=vector-csr d=scalar-dcsr D=vector-dcsr")
	fmt.Fprintln(w)
	spmv := adapt.TuneSpMV(pool, rows, nnzAxis, emptyAxis, p.Repeats, 602)
	t2 := newTable(append([]string{"nnz/row \\ empty"}, floatsToStrings(emptyAxis)...)...)
	idx = 0
	for _, d := range nnzAxis {
		row := []string{fmt.Sprint(d)}
		for range emptyAxis {
			row = append(row, spmvLetter(spmv[idx].Best))
			idx++
		}
		t2.add(row...)
	}
	t2.write(w)

	th := adapt.FitThresholds(tri, spmv)
	fmt.Fprintf(w, "\nfitted thresholds:  %+v\n", th)
	fmt.Fprintf(w, "default thresholds: %+v\n", adapt.DefaultThresholds())
	return nil
}

func triLetter(k kernels.TriKernel) string {
	switch k {
	case kernels.TriCompletelyParallel:
		return "P"
	case kernels.TriLevelSet:
		return "L"
	case kernels.TriSyncFree:
		return "S"
	case kernels.TriCuSparseLike:
		return "C"
	}
	return "?"
}

func spmvLetter(k kernels.SpMVKernel) string {
	switch k {
	case kernels.SpMVScalarCSR:
		return "s"
	case kernels.SpMVVectorCSR:
		return "v"
	case kernels.SpMVScalarDCSR:
		return "d"
	case kernels.SpMVVectorDCSR:
		return "D"
	}
	return "?"
}

func intsToStrings(v []int) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprint(x)
	}
	return out
}

func floatsToStrings(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%.0f%%", x*100)
	}
	return out
}

// comparedAlgorithms are the three methods of Figure 6 / Tables 4–5.
func comparedAlgorithms() []string {
	return []string{core.CuSparseLike, core.SyncFree, core.BlockRecursive}
}

// runCorpus measures the compared algorithms over the corpus on one
// device, returning measurements keyed by matrix then algorithm.
func runCorpus(dev exec.Device, entries []gen.Entry, p Params, th adapt.Thresholds) ([]map[string]Measurement, error) {
	pool := dev.Pool()
	defer exec.CloseLauncher(pool)
	cfg := corpusConfig(dev, pool, th)
	var out []map[string]Measurement
	for _, e := range entries {
		l := e.Build()
		row := make(map[string]Measurement, 3)
		for _, name := range comparedAlgorithms() {
			m, err := measure(name, dev, pool, l, e, cfg, p)
			if err != nil {
				return nil, err
			}
			row[name] = m
		}
		out = append(out, row)
	}
	return out, nil
}

// corpusConfig is the registry configuration of runCorpus: the block
// algorithm runs the options DefaultOptions ships (block.Defaults) on the
// run's pool, with the run's thresholds.
func corpusConfig(dev exec.Device, pool exec.Launcher, th adapt.Thresholds) core.Config {
	bo := block.Defaults(dev)
	bo.Pool = pool
	bo.Thresholds = th
	return core.Config{Device: dev, Pool: pool, Block: &bo}
}

// Figure6 reproduces Figure 6: per-matrix GFlops of the three methods on
// each device, plus the speedup summary of §4.2.
func Figure6(w io.Writer, p Params) error {
	entries := gen.Corpus(p.Scale)
	csvRows := [][]string{{"device", "matrix", "group", "n", "nnz", "algorithm", "prep_ms", "solve_ms", "gflops"}}
	for _, dev := range p.Devices {
		res, err := runCorpus(dev, entries, p, deviceThresholds(dev, p))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Figure 6: SpTRSV performance on %s (%d matrices, %d solves each)\n\n", dev, len(entries), p.Repeats)
		t := newTable("matrix", "n", "nnz", "cusparse-like", "sync-free", "block (GFlops)", "vs cuSP", "vs Sync")
		var vsCu, vsSync []float64
		for _, row := range res {
			for _, name := range comparedAlgorithms() {
				m := row[name]
				csvRows = append(csvRows, []string{
					m.Device, m.Matrix, m.Group, fmt.Sprint(m.N), fmt.Sprint(m.NNZ), m.Algorithm,
					ms(m.Preprocess), ms(m.Solve), csvCell(m.GFlops),
				})
			}
			cu, sy, bl := row[core.CuSparseLike], row[core.SyncFree], row[core.BlockRecursive]
			su1 := cu.Solve.Seconds() / bl.Solve.Seconds()
			su2 := sy.Solve.Seconds() / bl.Solve.Seconds()
			vsCu = append(vsCu, su1)
			vsSync = append(vsSync, su2)
			t.add(bl.Matrix, fmt.Sprint(bl.N), fmt.Sprint(bl.NNZ),
				fmt.Sprintf("%.2f", cu.GFlops), fmt.Sprintf("%.2f", sy.GFlops), fmt.Sprintf("%.2f", bl.GFlops),
				fmt.Sprintf("%.2fx", su1), fmt.Sprintf("%.2fx", su2))
		}
		t.write(w)
		printSpeedupSummary(w, "vs cusparse-like", vsCu)
		printSpeedupSummary(w, "vs sync-free", vsSync)
		fmt.Fprintln(w)
		speedupHistogram(w, "block speedup distribution vs cusparse-like:", vsCu)
		speedupHistogram(w, "block speedup distribution vs sync-free:", vsSync)
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper reference: mean 4.72x (max 72.03x) vs cuSPARSE, 9.95x (max 61.08x) vs Sync-free")
	return writeCSV(p.CSVDir, "fig6", csvRows)
}

func printSpeedupSummary(w io.Writer, label string, v []float64) {
	mn, q1, med, q3, mx := quartiles(v)
	wins := 0
	for _, x := range v {
		if x >= 1 {
			wins++
		}
	}
	fmt.Fprintf(w, "speedup %-18s geomean %.2fx  quartiles [%.2f %.2f %.2f %.2f %.2f]  wins %d/%d\n",
		label, geoMean(v), mn, q1, med, q3, mx, wins, len(v))
}

// Figure7 reproduces Figure 7: the double/single precision performance
// ratio distribution of each method on each device.
func Figure7(w io.Writer, p Params) error {
	entries := gen.Corpus(p.Scale)
	csvRows := [][]string{{"device", "algorithm", "matrix", "double_over_single_ratio"}}
	fmt.Fprintln(w, "Figure 7: double/single precision performance ratio (box stats over the corpus)")
	for _, dev := range p.Devices {
		pool := dev.Pool()
		cfg := core.Config{Device: dev, Pool: pool}
		ratios := map[string][]float64{}
		closePool := func() { exec.CloseLauncher(pool) }
		defer closePool()
		for _, e := range entries {
			l64 := e.Build()
			l32 := sparse.ConvertValues[float32](l64)
			for _, name := range comparedAlgorithms() {
				s64, err := core.New(name, l64, cfg)
				if err != nil {
					return err
				}
				b64 := gen.RandVec(l64.Rows, 7)
				x64 := make([]float64, l64.Rows)
				m64, _ := timeSolver(s64, b64, x64, p.Warmup, p.Repeats)

				s32, err := core.New(name, l32, cfg)
				if err != nil {
					return err
				}
				b32 := make([]float32, l64.Rows)
				for i := range b32 {
					b32[i] = float32(b64[i])
				}
				x32 := make([]float32, l64.Rows)
				m32, _ := timeSolver(s32, b32, x32, p.Warmup, p.Repeats)
				if m64 > 0 {
					// ratio of double to single *performance*:
					// t32/t64 <= 1 when double is slower.
					ratio := m32.Seconds() / m64.Seconds()
					ratios[name] = append(ratios[name], ratio)
					csvRows = append(csvRows, []string{dev.Name, name, e.Name, csvCell(ratio)})
				}
			}
		}
		fmt.Fprintf(w, "\ndevice %s\n\n", dev)
		t := newTable("algorithm", "min", "q1", "median", "q3", "max")
		var boxes []struct {
			Label                 string
			Min, Q1, Med, Q3, Max float64
		}
		for _, name := range comparedAlgorithms() {
			mn, q1, med, q3, mx := quartiles(ratios[name])
			t.add(name, f2(mn), f2(q1), f2(med), f2(q3), f2(mx))
			boxes = append(boxes, struct {
				Label                 string
				Min, Q1, Med, Q3, Max float64
			}{name, mn, q1, med, q3, mx})
		}
		t.write(w)
		fmt.Fprintln(w)
		boxPlotTable(w, 0, 1.5, boxes)
	}
	fmt.Fprintln(w, "\npaper reference: sync-free ~0.9, block 0.8-0.9, cuSPARSE 0.7-0.8")
	return writeCSV(p.CSVDir, "fig7", csvRows)
}

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// Table4 reproduces Table 4: the six representative matrices with their
// structural features, per-method GFlops and the block algorithm's
// speedups, on the larger device.
func Table4(w io.Writer, p Params) error {
	dev := p.Devices[len(p.Devices)-1]
	entries := gen.Representative6(p.Scale)
	res, err := runCorpus(dev, entries, p, deviceThresholds(dev, p))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 4: six representative matrices on %s\n\n", dev)
	t := newTable("matrix", "n", "nnz", "#levels", "par.min", "par.avg", "par.max",
		"cuSP.", "Sync.", "blk alg", "vs cuSP.", "vs Sync.")
	for i, e := range entries {
		l := e.Build()
		st := levelset.FromLowerCSR(l).Stats()
		cu, sy, bl := res[i][core.CuSparseLike], res[i][core.SyncFree], res[i][core.BlockRecursive]
		t.add(e.Name, fmt.Sprint(l.Rows), fmt.Sprint(l.NNZ()),
			fmt.Sprint(st.NLevels), fmt.Sprint(st.MinWidth), fmt.Sprintf("%.0f", st.AvgWidth), fmt.Sprint(st.MaxWidth),
			f2(cu.GFlops), f2(sy.GFlops), f2(bl.GFlops),
			fmt.Sprintf("%.2fx", cu.Solve.Seconds()/bl.Solve.Seconds()),
			fmt.Sprintf("%.2fx", sy.Solve.Seconds()/bl.Solve.Seconds()))
	}
	t.write(w)
	return nil
}

// Table5 reproduces Table 5: preprocessing cost, single-solve cost and
// amortised totals for 100/500/1000 iterations, averaged over the corpus.
func Table5(w io.Writer, p Params) error {
	dev := p.Devices[len(p.Devices)-1]
	entries := gen.Corpus(p.Scale)
	res, err := runCorpus(dev, entries, p, deviceThresholds(dev, p))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 5: average times in ms over %d matrices on %s\n\n", len(entries), dev)
	t := newTable("method", "preprocessing", "single SpTRSV", "100 iters", "500 iters", "1000 iters")
	for _, name := range comparedAlgorithms() {
		var prep, solve float64
		for _, row := range res {
			m := row[name]
			prep += m.Preprocess.Seconds() * 1e3
			solve += m.Solve.Seconds() * 1e3
		}
		prep /= float64(len(res))
		solve /= float64(len(res))
		t.add(name, f2(prep), f2(solve),
			f2(prep+100*solve), f2(prep+500*solve), f2(prep+1000*solve))
	}
	t.write(w)
	var ratios []float64
	for _, row := range res {
		m := row[core.BlockRecursive]
		if m.Solve > 0 {
			ratios = append(ratios, m.Preprocess.Seconds()/m.Solve.Seconds())
		}
	}
	sort.Float64s(ratios)
	fmt.Fprintf(w, "\nblock preprocessing / single solve: geomean %.2fx, median %.2fx (paper: avg 9.16x)\n",
		geoMean(ratios), ratios[len(ratios)/2])
	return nil
}
