package core

import (
	"math"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
)

func TestRegistryAllAlgorithmsSolve(t *testing.T) {
	l := gen.Layered(1500, 25, 5, 0.2, 1)
	b := gen.RandVec(l.Rows, 2)
	ref, err := kernels.NewSerialSolver(l)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, l.Rows)
	ref.Solve(b, want)
	cfg := Config{Device: exec.Device{Name: "test", Workers: 4, BlockFactor: 64}}
	for _, name := range AlgorithmNames() {
		s, err := New(name, l, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Rows() != l.Rows {
			t.Fatalf("%s: Rows=%d", name, s.Rows())
		}
		x := make([]float64, l.Rows)
		s.Solve(b, x)
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("%s: x[%d]=%g want %g", name, i, x[i], want[i])
			}
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	l := gen.DiagonalOnly(10, 1)
	// The retired jacobi-iterative and sync-free-csr are unknown, not
	// aliases of a kept solver.
	for _, name := range []string{"bogus", "jacobi-iterative", "sync-free-csr"} {
		if _, err := New[float64](name, l, Config{}); err == nil {
			t.Fatalf("unknown algorithm %q accepted", name)
		}
	}
}

func TestConfigOverrides(t *testing.T) {
	l := gen.Layered(800, 10, 4, 0, 3)
	pool := exec.NewPool(2)
	bo := block.Options{Reorder: false, MinBlockRows: 100, Instrument: true}
	s, err := New(BlockColumn, l, Config{Pool: pool, NSeg: 4, Block: &bo})
	if err != nil {
		t.Fatal(err)
	}
	bs, ok := s.(*block.Solver[float64])
	if !ok {
		t.Fatalf("unexpected concrete type %T", s)
	}
	if bs.NumTriBlocks() != 4 {
		t.Fatalf("NSeg override ignored: %d panels", bs.NumTriBlocks())
	}
	if bs.Perm() != nil {
		t.Fatal("Reorder=false override ignored")
	}
	x := make([]float64, l.Rows)
	s.Solve(gen.RandVec(l.Rows, 4), x)
	if bs.Stats().Solves != 1 {
		t.Fatal("Instrument override ignored")
	}
}

func TestConfigDefaultNSeg(t *testing.T) {
	l := gen.Layered(4000, 10, 4, 0, 5)
	s, err := New(BlockRow, l, Config{Device: exec.Device{Workers: 2, BlockFactor: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(*block.Solver[float64]).NumTriBlocks(); got != 8 {
		t.Fatalf("default NSeg: %d panels want 8", got)
	}
}
