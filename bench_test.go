// Benchmarks regenerating the paper's tables and figures as testing.B
// targets. Each Benchmark* family corresponds to one table or figure of
// the evaluation section; `go run ./cmd/sptrsvbench` produces the full
// formatted reports, while these targets give per-configuration numbers
// under the standard Go tooling.
//
//	go test -bench=. -benchmem .
package blocksptrsv_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/core"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// benchScale keeps the benchmark corpus small enough for routine runs;
// cmd/sptrsvbench exposes the full-size sweeps.
const benchScale = 0.05

var benchRep6 = sync.OnceValue(func() []builtEntry {
	var out []builtEntry
	for _, e := range gen.Representative6(benchScale) {
		out = append(out, builtEntry{e.Name, e.Build()})
	}
	return out
})

type builtEntry struct {
	name string
	m    *sparse.CSR[float64]
}

func benchDevice() exec.Device { return exec.DefaultDevices()[1] }

// solveBench times repeated solves of one preprocessed solver.
func solveBench(b *testing.B, s core.Solver[float64], nnz int) {
	b.Helper()
	rhs := gen.RandVec(s.Rows(), 7)
	x := make([]float64, s.Rows())
	s.Solve(rhs, x) // warmup
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(rhs, x)
	}
	b.StopTimer()
	gflops := 2 * float64(nnz) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gflops, "GFlops")
}

// BenchmarkTable1Table2Traffic verifies and reports the Table-1/2 traffic
// counters of the three partitions on a dense triangle (the preprocessing
// is what is being measured; the counters are checked against the paper's
// closed forms).
func BenchmarkTable1Table2Traffic(b *testing.B) {
	n := 256
	l := gen.DenseLower(n, 99)
	for _, kind := range []block.Kind{block.ColumnBlock, block.RowBlock, block.Recursive} {
		b.Run(kind.String(), func(b *testing.B) {
			var s *block.Solver[float64]
			for i := 0; i < b.N; i++ {
				o := block.Options{Workers: 2, Kind: kind, MinBlockRows: 1}
				if kind == block.Recursive {
					o.MaxDepth = 4
				} else {
					o.NSeg = 16
				}
				var err error
				s, err = block.Preprocess(l, o)
				if err != nil {
					b.Fatal(err)
				}
			}
			tr := s.Traffic()
			if float64(tr.BUpdates) != block.FormulaBUpdates(kind, float64(n), 4) {
				b.Fatalf("BUpdates %d mismatches Table 1 formula", tr.BUpdates)
			}
			if float64(tr.XLoads) != block.FormulaXLoads(kind, float64(n), 4) {
				b.Fatalf("XLoads %d mismatches Table 2 formula", tr.XLoads)
			}
			b.ReportMetric(float64(tr.BUpdates)/float64(n), "b-updates/n")
			b.ReportMetric(float64(tr.XLoads)/float64(n), "x-loads/n")
		})
	}
}

// BenchmarkFig4SpMVPhase measures the SpMV-phase time of the three block
// partitions as the part count grows (Figure 4's series), on the
// kkt_power-like and FullChip-like matrices.
func BenchmarkFig4SpMVPhase(b *testing.B) {
	rep := benchRep6()
	for _, entry := range []builtEntry{rep[2], rep[3]} {
		for _, kind := range []block.Kind{block.ColumnBlock, block.RowBlock, block.Recursive} {
			for _, x := range []int{2, 4} {
				name := fmt.Sprintf("%s/%s/parts=%d", entry.name, kind, 1<<x)
				b.Run(name, func(b *testing.B) {
					o := block.Options{
						Pool: benchDevice().Pool(), Kind: kind,
						Reorder: kind == block.Recursive, MinBlockRows: 1, Instrument: true,
					}
					if kind == block.Recursive {
						o.MaxDepth = x
					} else {
						o.NSeg = 1 << x
					}
					s, err := block.Preprocess(entry.m, o)
					if err != nil {
						b.Fatal(err)
					}
					rhs := gen.RandVec(entry.m.Rows, 7)
					xv := make([]float64, entry.m.Rows)
					s.Solve(rhs, xv)
					s.ResetStats()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						s.Solve(rhs, xv)
					}
					b.StopTimer()
					st := s.Stats()
					b.ReportMetric(float64(st.SpMVTime.Nanoseconds())/float64(b.N), "spmv-ns/solve")
				})
			}
		}
	}
}

// BenchmarkFig5TuneCell measures one representative tuning cell per SpTRSV
// kernel — the unit of work behind the Figure-5 heatmaps.
func BenchmarkFig5TuneCell(b *testing.B) {
	pool := benchDevice().Pool()
	for _, cell := range []struct {
		deg, lev int
	}{{1, 8}, {8, 32}, {8, 2048}} {
		b.Run(fmt.Sprintf("nnzrow=%d/levels=%d", cell.deg, cell.lev), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cells := adapt.TuneTri(pool, 2000, []int{cell.deg}, []int{cell.lev}, 1, 601)
				if len(cells) != 1 || cells[0].Best == 0 {
					b.Fatal("tuning cell failed")
				}
			}
		})
	}
}

// BenchmarkFig6Corpus measures the three compared algorithms on the six
// representative matrices — the per-matrix points of Figure 6.
func BenchmarkFig6Corpus(b *testing.B) {
	dev := benchDevice()
	pool := dev.Pool()
	for _, entry := range benchRep6() {
		for _, algo := range []string{core.CuSparseLike, core.SyncFree, core.BlockRecursive} {
			b.Run(entry.name+"/"+algo, func(b *testing.B) {
				s, err := core.New(algo, entry.m, core.Config{Device: dev, Pool: pool})
				if err != nil {
					b.Fatal(err)
				}
				solveBench(b, s, entry.m.NNZ())
			})
		}
	}
}

// BenchmarkFig7Precision measures double vs single precision solves of the
// block algorithm (the Figure-7 ratio's numerator and denominator).
func BenchmarkFig7Precision(b *testing.B) {
	dev := benchDevice()
	entry := benchRep6()[2] // kkt_power-like
	b.Run("float64", func(b *testing.B) {
		s, err := core.New(core.BlockRecursive, entry.m, core.Config{Device: dev})
		if err != nil {
			b.Fatal(err)
		}
		solveBench(b, s, entry.m.NNZ())
	})
	b.Run("float32", func(b *testing.B) {
		m32 := sparse.ConvertValues[float32](entry.m)
		s, err := core.New(core.BlockRecursive, m32, core.Config{Device: dev})
		if err != nil {
			b.Fatal(err)
		}
		rhs := make([]float32, m32.Rows)
		for i := range rhs {
			rhs[i] = float32(i%5) - 2
		}
		x := make([]float32, m32.Rows)
		s.Solve(rhs, x)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Solve(rhs, x)
		}
	})
}

// BenchmarkTable4Representative is the Table-4 measurement: block solver
// on each of the six representative matrices.
func BenchmarkTable4Representative(b *testing.B) {
	dev := benchDevice()
	for _, entry := range benchRep6() {
		b.Run(entry.name, func(b *testing.B) {
			s, err := core.New(core.BlockRecursive, entry.m, core.Config{Device: dev})
			if err != nil {
				b.Fatal(err)
			}
			solveBench(b, s, entry.m.NNZ())
		})
	}
}

// BenchmarkTable5Preprocess measures each algorithm's preprocessing cost
// (the first column of Table 5).
func BenchmarkTable5Preprocess(b *testing.B) {
	dev := benchDevice()
	pool := dev.Pool()
	entry := benchRep6()[2]
	for _, algo := range []string{core.CuSparseLike, core.SyncFree, core.BlockRecursive} {
		b.Run(algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.New(algo, entry.m, core.Config{Device: dev, Pool: pool}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
