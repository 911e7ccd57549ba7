package block

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
	"github.com/sss-lab/blocksptrsv/internal/trace"
)

// traceTestSolver builds a multi-block solver with tracing and
// instrumentation armed, so trace records and aggregate stats can be
// cross-checked against each other. It selects with the paper's tree, so
// its leaves run the parallel kernels. It runs on one worker: the launch
// schedule, and with it the order of the kernels' atomic scatter adds, is
// then fixed, so two solves of the same b agree bit for bit.
func traceTestSolver(t *testing.T, rec *trace.StepRecorder) (*Solver[float64], []float64, []float64) {
	t.Helper()
	l := gen.Layered(800, 20, 4, 0, 99)
	s, err := Preprocess(l, Options{
		Workers: 1, Kind: Recursive, MinBlockRows: 64,
		Reorder: true, Thresholds: paperThresholds(),
		Instrument: true, Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.RandVec(l.Rows, 3)
	return s, b, make([]float64, l.Rows)
}

// TestTraceMatchesStats pins the step records against the aggregate
// stats on every instrumented entry point: single-RHS Solve and the batch
// paths at k = 3 run the same step loop and must feed both sinks alike.
func TestTraceMatchesStats(t *testing.T) {
	const k = 3
	inputs := []struct {
		name  string
		k     int
		solve func(s *Solver[float64], b, x []float64) error
	}{
		{"Solve", 1, func(s *Solver[float64], b, x []float64) error { s.Solve(b, x); return nil }},
		{"SolveBatch", k, func(s *Solver[float64], b, x []float64) error { s.SolveBatch(b, x, k); return nil }},
		{"SolveBatchContext", k, func(s *Solver[float64], b, x []float64) error {
			return s.SolveBatchContext(context.Background(), b, x, k)
		}},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			rec := trace.NewStepRecorder(1 << 12)
			s, b, _ := traceTestSolver(t, rec)
			bk := InterleaveRHS(slices.Repeat([][]float64{b}, in.k))
			xk := make([]float64, len(bk))
			traceMatchesStats(t, rec, s, func() error { return in.solve(s, bk, xk) })
		})
	}
}

func traceMatchesStats(t *testing.T, rec *trace.StepRecorder, s *Solver[float64], solve func() error) {
	t.Helper()
	steps := s.NumTriBlocks() + s.NumSquareBlocks()
	if steps < 3 {
		t.Fatalf("want a multi-block plan, got %d steps", steps)
	}
	const solves = 7
	for i := 0; i < solves; i++ {
		if err := solve(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	// One record per plan step per solve, and records classify exactly as
	// the aggregate call counters do.
	if got, want := rec.Total(), st.TriCalls+st.SpMVCalls; got != want {
		t.Fatalf("recorded %d steps, stats count %d", got, want)
	}
	if got := rec.Total(); got != int64(steps*solves) {
		t.Fatalf("recorded %d steps, want %d steps x %d solves", got, steps, solves)
	}
	// Durations are measured once and fed to both sinks, so the per-kind
	// sums must match the aggregate stats exactly, not approximately.
	var triSum, spmvSum time.Duration
	var triCalls, spmvCalls int64
	for _, step := range rec.Steps() {
		switch step.Kind {
		case "tri":
			triSum += step.Duration
			triCalls++
		case "spmv":
			spmvSum += step.Duration
			spmvCalls++
		default:
			t.Fatalf("unknown step kind %q", step.Kind)
		}
	}
	if triSum != st.TriTime || spmvSum != st.SpMVTime {
		t.Fatalf("trace sums tri=%v spmv=%v, stats tri=%v spmv=%v", triSum, spmvSum, st.TriTime, st.SpMVTime)
	}
	if triCalls != st.TriCalls || spmvCalls != st.SpMVCalls {
		t.Fatalf("trace calls tri=%d spmv=%d, stats tri=%d spmv=%d", triCalls, spmvCalls, st.TriCalls, st.SpMVCalls)
	}
	// Summarize agrees with the raw steps.
	sum := rec.Summarize()
	if sum.TriTime != triSum || sum.SpMVTime != spmvSum || sum.Solves != solves {
		t.Fatalf("summary %+v disagrees with steps (tri=%v spmv=%v solves=%d)", sum, triSum, spmvSum, solves)
	}
	// The step-duration quantiles come from Histogram.Quantile: monotone
	// upper bounds bracketing the observed extremes within the log2 bucket
	// guarantee (the p99 bound can be at most 2x the longest step; every
	// bound is at least as large as the shortest step).
	var minStep, maxStep time.Duration = 1 << 62, 0
	for _, step := range rec.Steps() {
		if step.Duration < minStep {
			minStep = step.Duration
		}
		if step.Duration > maxStep {
			maxStep = step.Duration
		}
	}
	if sum.StepP50 <= 0 || sum.StepP50 > sum.StepP90 || sum.StepP90 > sum.StepP99 {
		t.Fatalf("quantiles not monotone: p50=%v p90=%v p99=%v", sum.StepP50, sum.StepP90, sum.StepP99)
	}
	if sum.StepP50 < minStep {
		t.Fatalf("p50 %v below shortest step %v", sum.StepP50, minStep)
	}
	if sum.StepP99 > 2*maxStep {
		t.Fatalf("p99 %v beyond 2x the longest step %v", sum.StepP99, maxStep)
	}
}

func TestTraceRecordsGeometry(t *testing.T) {
	rec := trace.NewStepRecorder(1 << 12)
	s, b, x := traceTestSolver(t, rec)
	s.Solve(b, x)
	for _, step := range rec.Steps() {
		if step.Rows <= 0 || step.NNZ < 0 || step.Kernel == "" || step.Duration < 0 {
			t.Fatalf("malformed step: %+v", step)
		}
		if step.Kind == "tri" && (step.Cols != step.Rows || step.Levels < 1) {
			t.Fatalf("malformed tri step: %+v", step)
		}
		// SetTrace copies each block's kernel into the step's meta.
		var want string
		if step.Kind == "tri" {
			want = s.tris[step.Block].kernel.String()
		} else {
			want = s.sqs[step.Block].kernel.String()
		}
		if step.Kernel != want {
			t.Fatalf("step %d records kernel %s, its block runs %s", step.Step, step.Kernel, want)
		}
		if step.Solve != 1 {
			t.Fatalf("step of solve %d, want 1", step.Solve)
		}
	}
}

func TestTraceRingBounded(t *testing.T) {
	rec := trace.NewStepRecorder(4)
	s, b, x := traceTestSolver(t, rec)
	steps := s.NumTriBlocks() + s.NumSquareBlocks()
	s.Solve(b, x)
	s.Solve(b, x)
	total := int64(2 * steps)
	if rec.Total() != total {
		t.Fatalf("Total=%d want %d", rec.Total(), total)
	}
	if rec.Len() != 4 {
		t.Fatalf("Len=%d want ring capacity 4", rec.Len())
	}
	if rec.Dropped() != total-4 {
		t.Fatalf("Dropped=%d want %d", rec.Dropped(), total-4)
	}
	// The retained window is the most recent steps, oldest-first.
	kept := rec.Steps()
	if len(kept) != 4 || kept[len(kept)-1].Step != steps-1 {
		t.Fatalf("retained window wrong: %+v", kept)
	}
	rec.Reset()
	if rec.Total() != 0 || rec.Len() != 0 || rec.Dropped() != 0 {
		t.Fatalf("Reset left Total=%d Len=%d Dropped=%d", rec.Total(), rec.Len(), rec.Dropped())
	}
}

func TestSetTraceDetach(t *testing.T) {
	rec := trace.NewStepRecorder(64)
	s, b, x := traceTestSolver(t, rec)
	s.Solve(b, x)
	if rec.Total() == 0 {
		t.Fatal("no steps recorded while attached")
	}
	before := rec.Total()
	s.SetTrace(nil)
	if s.Trace() != nil {
		t.Fatal("Trace() not nil after detach")
	}
	s.Solve(b, x)
	if rec.Total() != before {
		t.Fatalf("detached recorder still grew: %d -> %d", before, rec.Total())
	}
}

func TestExplainStable(t *testing.T) {
	l := gen.Layered(800, 20, 4, 0, 99)
	opts := Options{Workers: 2, Kind: Recursive, MinBlockRows: 64, Reorder: true}
	s1, err := Preprocess(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Preprocess(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := s1.Explain(), s2.Explain()
	if e1 != e2 {
		t.Fatalf("Explain not deterministic:\n%s\nvs\n%s", e1, e2)
	}
	for _, want := range []string{"execution plan:", "tri kernels:", "spmv kernels:", "kernel=", "work/level=", "adaptive=true serial-floor=4096"} {
		if !strings.Contains(e1, want) {
			t.Fatalf("Explain missing %q:\n%s", want, e1)
		}
	}
	// One plan line per step, plus the 6 header/summary lines.
	steps := s1.NumTriBlocks() + s1.NumSquareBlocks()
	if lines := strings.Count(e1, "\n"); lines != steps+6 {
		t.Fatalf("Explain has %d lines, want %d steps + 6", lines, steps+6)
	}
	if ses := s1.NewSession(); ses.Explain() != e1 {
		t.Fatal("Session.Explain differs from Solver.Explain")
	}
	// The floor is shown only where the decision tree chose the
	// triangular kernels: not for a forced one, nor for a reloaded plan.
	// adaptive= reads false exactly when a kernel is forced; a reloaded
	// plan keeps no options, so it reads true.
	want := map[string]string{
		"forced-tri":  "adaptive=false serial-floor=n/a",
		"forced-spmv": "adaptive=false serial-floor=4096",
		"loaded":      "adaptive=true serial-floor=n/a",
	}
	others := map[string]*Solver[float64]{}
	forcedTri, forcedSpMV := opts, opts
	forcedTri.ForceTri = kernels.TriSyncFree
	forcedSpMV.ForceSpMV = kernels.SpMVScalarCSR
	if others["forced-tri"], err = Preprocess(l, forcedTri); err != nil {
		t.Fatal(err)
	}
	if others["forced-spmv"], err = Preprocess(l, forcedSpMV); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s1.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if others["loaded"], err = ReadSolver[float64](&buf, s1.pool); err != nil {
		t.Fatal(err)
	}
	for name, s := range others {
		if e := s.Explain(); !strings.Contains(e, want[name]) {
			t.Errorf("%s: want %q:\n%s", name, want[name], e)
		}
	}
}

// TestExplainStopReasons: every triangular line names the rule that
// ended the recursion at its range.
func TestExplainStopReasons(t *testing.T) {
	pool := exec.NewPool(3)
	banded := gen.Banded(12000, 32, 0.25, 4101)
	defaults := Defaults(exec.Device{Name: "test", Workers: 3, BlockFactor: 1024})
	defaults.Pool = pool
	paper := defaults
	paper.Thresholds = paperThresholds()
	shallow := paper
	shallow.MaxDepth, shallow.MinBlockRows = 1, 1
	reloaded := func(t *testing.T, s *Solver[float64]) *Solver[float64] {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSolver[float64](&buf, pool)
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	for _, tc := range []struct {
		name   string
		l      *sparse.CSR[float64]
		o      Options
		reload bool
		want   string
	}{
		{"banded at defaults", banded, defaults, false, "stop=serial"},
		{"diagonal at defaults", gen.DiagonalOnly(12000, 1), defaults, false, "stop=one-level"},
		{"banded at floor 0", banded, paper, false, "stop=size"},
		{"maxdepth 1", banded, shallow, false, "stop=depth"},
		{"reloaded", banded, paper, true, "stop=n/a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Preprocess(tc.l, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			if tc.reload {
				s = reloaded(t, s)
			}
			e := s.Explain()
			tris := 0
			for _, line := range strings.Split(e, "\n") {
				if !strings.Contains(line, " tri ") {
					continue
				}
				tris++
				if !strings.HasSuffix(line, " "+tc.want) {
					t.Fatalf("line %q does not end in %s:\n%s", line, tc.want, e)
				}
			}
			if tris != s.NumTriBlocks() {
				t.Fatalf("%d triangular lines for %d leaves:\n%s", tris, s.NumTriBlocks(), e)
			}
		})
	}
}

// TestExplainNamesSerialForm: every serial line names the leaf's form,
// gather on every leaf the walk sends to serial; a reloaded solver names
// the form it stored.
func TestExplainNamesSerialForm(t *testing.T) {
	pool := exec.NewPool(3)
	defaults := Defaults(exec.Device{Name: "test", Workers: 3, BlockFactor: 1024})
	defaults.Pool = pool
	paper := defaults
	paper.Thresholds = paperThresholds()
	layered := gen.Layered(10_000, 512, 6, 0, 4104) // batch's layered-10k
	grid5 := gen.GridLaplacian5(94, 94, 4102)       // deep's grid5
	for _, tc := range []struct {
		name    string
		l       *sparse.CSR[float64]
		o       Options
		reload  bool
		want    string // on every serial line
		serial  int    // serial lines
		gathers int    // of them in gather form
	}{
		{"layered-10k at defaults", layered, defaults, false, "kernel=serial form=gather stop=serial", 1, 1},
		{"grid5 at defaults", grid5, defaults, false, "kernel=serial form=gather stop=serial", 1, 1},
		{"layered-10k at floor 0", layered, paper, false, "", 0, 0},
		{"reloaded", layered, defaults, true, "kernel=serial form=gather stop=n/a", 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Preprocess(tc.l, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			if tc.reload {
				var buf bytes.Buffer
				if _, err := s.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				if s, err = ReadSolver[float64](&buf, pool); err != nil {
					t.Fatal(err)
				}
			}
			e := s.Explain()
			serial, gathers := 0, 0
			for _, line := range strings.Split(e, "\n") {
				if !strings.Contains(line, " tri ") {
					continue
				}
				if strings.Contains(line, "form=gather") {
					gathers++
				}
				if !strings.Contains(line, "kernel=serial") {
					if strings.Contains(line, "form=") {
						t.Fatalf("non-serial line %q names a form:\n%s", line, e)
					}
					continue
				}
				serial++
				if !strings.HasSuffix(line, " "+tc.want) {
					t.Fatalf("line %q does not end in %q:\n%s", line, tc.want, e)
				}
			}
			if serial != tc.serial || gathers != tc.gathers {
				t.Fatalf("%d serial lines, %d in gather form; want %d and %d:\n%s", serial, gathers, tc.serial, tc.gathers, e)
			}
			stored := 0
			for i := range s.tris {
				if s.tris[i].lower != nil {
					stored++
				}
			}
			if stored != tc.gathers {
				t.Fatalf("%d leaves stored in gather form, Explain names %d", stored, tc.gathers)
			}
		})
	}
}

func TestConcurrentSessionsSharedRecorder(t *testing.T) {
	rec := trace.NewStepRecorder(1 << 14)
	s, b, _ := traceTestSolver(t, rec)
	steps := s.NumTriBlocks() + s.NumSquareBlocks()
	const sessions, solvesEach = 4, 5
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ses := s.NewSession()
			x := make([]float64, len(b))
			for j := 0; j < solvesEach; j++ {
				ses.Solve(b, x)
			}
		}()
	}
	wg.Wait()
	if got, want := rec.Total(), int64(sessions*solvesEach*steps); got != want {
		t.Fatalf("recorded %d steps, want %d", got, want)
	}
	// Steps of concurrent solves interleave in the ring but keep distinct
	// solve ids, and each solve contributes exactly one record per step.
	perSolve := map[int64]int{}
	for _, step := range rec.Steps() {
		perSolve[step.Solve]++
	}
	if len(perSolve) != sessions*solvesEach {
		t.Fatalf("%d distinct solve ids, want %d", len(perSolve), sessions*solvesEach)
	}
	for id, n := range perSolve {
		if n != steps {
			t.Fatalf("solve %d has %d steps, want %d", id, n, steps)
		}
	}
}

func TestSessionResetStats(t *testing.T) {
	l := gen.Layered(400, 10, 4, 0, 7)
	s, err := Preprocess(l, Options{Workers: 1, Kind: Recursive, MinBlockRows: 64, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.RandVec(l.Rows, 3)
	x := make([]float64, l.Rows)
	ses1, ses2 := s.NewSession(), s.NewSession()
	s.Solve(b, x)
	ses1.Solve(b, x)
	ses2.Solve(b, x)

	// Solver.ResetStats clears only the solver's own counters.
	s.ResetStats()
	if s.Stats().Solves != 0 {
		t.Fatal("Solver.ResetStats did not clear solver stats")
	}
	if ses1.Stats().Solves != 1 || ses2.Stats().Solves != 1 {
		t.Fatalf("Solver.ResetStats touched session stats: %d, %d",
			ses1.Stats().Solves, ses2.Stats().Solves)
	}

	// Session.ResetStats clears only that session.
	ses1.Solve(b, x)
	ses1.ResetStats()
	if got := ses1.Stats(); got != (SolveStats{}) {
		t.Fatalf("Session.ResetStats left %+v", got)
	}
	if ses2.Stats().Solves != 1 {
		t.Fatal("Session.ResetStats touched a sibling session")
	}
	ses1.Solve(b, x)
	if st := ses1.Stats(); st.Solves != 1 || st.TriCalls == 0 {
		t.Fatalf("session stats did not accumulate after reset: %+v", st)
	}
}

// TestTraceAcrossSerialization exercises SetTrace on a reloaded solver:
// depths are lost (Explain degrades flat) but tracing works in full.
func TestTraceAcrossSerialization(t *testing.T) {
	l := gen.Layered(400, 10, 4, 0, 7)
	s, err := Preprocess(l, Options{Workers: 1, Kind: Recursive, MinBlockRows: 64, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadSolver[float64](&buf, exec.NewLauncher(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewStepRecorder(1 << 10)
	s2.SetTrace(rec)
	b := gen.RandVec(l.Rows, 3)
	x := make([]float64, l.Rows)
	s2.Solve(b, x)
	steps := s2.NumTriBlocks() + s2.NumSquareBlocks()
	if rec.Total() != int64(steps) {
		t.Fatalf("reloaded solver recorded %d steps, want %d", rec.Total(), steps)
	}
	if e := s2.Explain(); !strings.Contains(e, "execution plan:") {
		t.Fatalf("reloaded Explain malformed:\n%s", e)
	}
}

// TestTraceGuardedPath checks SolveContext records steps identically to
// Solve and that recovery counters reach the registry path unharmed.
func TestTraceGuardedPath(t *testing.T) {
	rec := trace.NewStepRecorder(1 << 12)
	s, b, x := traceTestSolver(t, rec)
	steps := s.NumTriBlocks() + s.NumSquareBlocks()
	if err := s.SolveContext(nil, b, x); err != nil {
		t.Fatal(err)
	}
	if rec.Total() != int64(steps) {
		t.Fatalf("guarded solve recorded %d steps, want %d", rec.Total(), steps)
	}
	st := s.Stats()
	if got, want := rec.Total(), st.TriCalls+st.SpMVCalls; got != want {
		t.Fatalf("recorded %d steps, stats count %d", got, want)
	}
	ref := make([]float64, len(b))
	copy(ref, x)
	for i := range x {
		x[i] = 0
	}
	s.Solve(b, x)
	for i := range x {
		if x[i] != ref[i] {
			t.Fatalf("guarded and plain solve disagree at %d: %v vs %v", i, ref[i], x[i])
		}
	}
}

// TestTraceRefinementSharesSolveID: a traced SolveContext that refines
// records the refinement's steps under the solve id of the attempt it
// corrects, so one guarded call is one solve in the trace.
func TestTraceRefinementSharesSolveID(t *testing.T) {
	rec := trace.NewStepRecorder(1 << 12)
	l := gen.Layered(800, 20, 4, 0, 99)
	s, err := Preprocess(l, Options{
		Workers: 1, Kind: Recursive, MinBlockRows: 64, Reorder: true, Trace: rec,
		VerifyResidual: 1e-300, // unattainable: every rung runs
	})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.RandVec(l.Rows, 3)
	var re *ResidualError
	if err := s.SolveContext(context.Background(), b, make([]float64, l.Rows)); !errors.As(err, &re) {
		t.Fatalf("SolveContext = %v, want a ResidualError after the whole ladder", err)
	}
	st := s.Stats()
	if st.Refinements != 1 || st.Solves != 2 {
		t.Fatalf("stats %+v, want one attempt and its refinement", st)
	}
	steps := s.NumTriBlocks() + s.NumSquareBlocks()
	if rec.Total() != int64(2*steps) {
		t.Fatalf("recorded %d steps, want %d for the attempt and its refinement", rec.Total(), 2*steps)
	}
	for _, step := range rec.Steps() {
		if step.Solve != st.LastTraceID {
			t.Fatalf("step %d recorded under solve %d, want the call's id %d", step.Step, step.Solve, st.LastTraceID)
		}
	}
}

// TestTraceBatchPaths: the batched solve paths assign one solve id per
// batch, record one step entry per plan step (same as single-RHS), and
// expose the id through SolveStats.LastTraceID so request-scoped spans
// can link to the step trace.
func TestTraceBatchPaths(t *testing.T) {
	rec := trace.NewStepRecorder(1 << 12)
	s, b, _ := traceTestSolver(t, rec)
	n := s.Rows()
	steps := len(s.steps)
	const k = 3
	bb := make([]float64, n*k)
	for i := range bb {
		bb[i] = b[i%n] + float64(i%k)
	}
	xb := make([]float64, n*k)

	s.SolveBatch(bb, xb, k)
	if got := rec.Total(); got != int64(steps) {
		t.Fatalf("SolveBatch recorded %d steps, want %d", got, steps)
	}
	firstID := s.Stats().LastTraceID
	if firstID == 0 {
		t.Fatal("SolveBatch left LastTraceID unset")
	}

	if err := s.SolveBatchContext(context.Background(), bb, xb, k); err != nil {
		t.Fatal(err)
	}
	if got := rec.Total(); got != int64(2*steps) {
		t.Fatalf("after SolveBatchContext recorded %d steps, want %d", got, 2*steps)
	}
	secondID := s.Stats().LastTraceID
	if secondID != firstID+1 {
		t.Fatalf("batch solve ids not sequential: %d then %d", firstID, secondID)
	}
	// Every retained step carries the solve id of the batch it ran in.
	for _, step := range rec.Steps() {
		if step.Solve != firstID && step.Solve != secondID {
			t.Fatalf("step solve id %d not in {%d,%d}", step.Solve, firstID, secondID)
		}
	}

	// Sessions thread ids through their own stats stream too.
	ses := s.NewSession()
	if err := ses.SolveBatchContext(context.Background(), bb, xb, k); err != nil {
		t.Fatal(err)
	}
	if got := ses.Stats().LastTraceID; got != secondID+1 {
		t.Fatalf("session batch id = %d, want %d", got, secondID+1)
	}

	// Without a recorder the id stays zero — the untraced marker.
	s2, b2, x2 := traceTestSolver(t, nil)
	s2.Solve(b2, x2)
	if got := s2.Stats().LastTraceID; got != 0 {
		t.Fatalf("untraced solve set LastTraceID = %d", got)
	}
}
