package block

import (
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/trace"
)

// TestTraceDisabledAllocs pins the zero-allocation contract of the
// observability layer on a closure-free solve path (serial kernel, single
// triangle, one worker — parallel kernels allocate launch closures
// regardless of tracing, which would drown the signal). Both the disabled
// path (nil-recorder check plus counter increments) and the enabled path
// (ring record, prebuilt pprof labels) must not allocate.
func TestTraceDisabledAllocs(t *testing.T) {
	l := gen.Banded(2000, 8, 0.2, 5)
	s, err := Preprocess(l, Options{
		Workers: 1, Kind: Recursive, MinBlockRows: l.Rows,
		ForceTri: kernels.TriSerial,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.RandVec(l.Rows, 3)
	x := make([]float64, l.Rows)

	if allocs := testing.AllocsPerRun(100, func() { s.Solve(b, x) }); allocs != 0 {
		t.Fatalf("untraced solve allocates %.0f objects per run, want 0", allocs)
	}

	s.SetTrace(trace.NewStepRecorder(1 << 12))
	if allocs := testing.AllocsPerRun(100, func() { s.Solve(b, x) }); allocs != 0 {
		t.Fatalf("traced solve allocates %.0f objects per run, want 0", allocs)
	}
}

// BenchmarkTraceOverhead measures what Options.Trace costs a realistic
// multi-block parallel solve: trace-off is the baseline (the nil
// recorder is tested per solve and the steps read no clock), trace-on
// adds two clock reads, one short critical section and one struct copy
// per step.
//
//	go test ./internal/block -bench TraceOverhead -benchmem
func BenchmarkTraceOverhead(b *testing.B) {
	l := gen.Layered(20000, 200, 6, 0, 913)
	rhs := gen.RandVec(l.Rows, 3)
	run := func(b *testing.B, rec *trace.StepRecorder) {
		pool := exec.NewLauncher(exec.LaunchSpin, 0)
		defer exec.CloseLauncher(pool)
		s, err := Preprocess(l, Options{
			Pool: pool, Kind: Recursive, MinBlockRows: 1024,
			Reorder: true, Trace: rec,
		})
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, l.Rows)
		s.Solve(rhs, x) // warm the pool and page in the blocks
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Solve(rhs, x)
		}
	}
	b.Run("trace-off", func(b *testing.B) { run(b, nil) })
	b.Run("trace-on", func(b *testing.B) { run(b, trace.NewStepRecorder(1<<16)) })
}
