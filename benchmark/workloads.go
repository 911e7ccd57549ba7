package main

import (
	"fmt"
	"math"

	sptrsv "github.com/sss-lab/blocksptrsv"
	"github.com/sss-lab/blocksptrsv/internal/gen"
)

// input is one named lower-triangular system of a workload.
type input struct {
	name string
	l    *sptrsv.Matrix[float64]
}

// workload is one set of inputs the benchmark runs. The library
// workloads call Solve (k = 1) or SolveBatch (k > 1) round-robin over
// their matrices; serve puts its matrices behind an in-process daemon.
type workload struct {
	name string
	// k is the number of right-hand sides per library call.
	k int
	// serve selects the daemon workload.
	serve bool
	// build makes the matrices from the seed; size scales every
	// dimension (1 for the benchmark, smaller in tests).
	build func(seed int64, size float64) []input
}

// The suite matrices use the seeds seed+1 … seed+8 in suite order, so the
// default seed 4100 reproduces the committed suite corpus
// (internal/bench/testdata/corpus) at scale 0.1.
var workloads = []workload{
	{
		// Matrices that fit in L2 with thousands of levels: dependency
		// waiting, barriers and launches dominate, SpMV does little.
		name: "deep", k: 1,
		build: func(seed int64, size float64) []input {
			s := 0.1 * size
			return []input{suiteBanded(seed, s), suiteChain(seed, s), suiteGrid5(seed, s)}
		},
	},
	{
		// Matrices above the L2 cache with few levels: the cost is
		// bandwidth per nonzero, in wide parallel kernels and SpMV blocks.
		name: "wide", k: 1,
		build: func(seed int64, size float64) []input {
			return []input{suiteBipartite(seed, size), suitePowerLaw(seed, size), suiteLayered(seed, size)}
		},
	},
	{
		// Sixteen right-hand sides per call, the ILU-PCG and coalesced
		// daemon use: the same plans run through the batch kernels.
		name: "batch", k: 16,
		build: func(seed int64, size float64) []input {
			s := 0.1 * size
			return []input{suiteGrid5(seed, s), suiteILU0(s), suiteLayered(seed, s)}
		},
	},
	{
		// The two matrices of the sptrsvd documentation behind an
		// in-process daemon with default settings.
		name: "serve", k: 1, serve: true, build: serveInputs,
	},
}

// serveInputs are the two matrices of the sptrsvd documentation. The serve
// workload, and the daemon layers of every traced run, put them behind an
// in-process daemon.
func serveInputs(seed int64, size float64) []input {
	side := max(int(120*math.Sqrt(size)), 4)
	return []input{
		{"grid", gen.GridLaplacian5(side, side, seed+9)},
		{"layered", gen.Layered(scaled(20_000, size), 40, 6, 0.1, seed+10)},
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func scaled(n int, s float64) int { return max(int(float64(n)*s), 16) }

func suiteBanded(seed int64, s float64) input {
	return input{"suite-banded", gen.Banded(scaled(120_000, s), 32, 0.25, seed+1)}
}

func suiteGrid5(seed int64, s float64) input {
	side := max(int(300*math.Sqrt(s)), 8)
	return input{"suite-grid5", gen.GridLaplacian5(side, side, seed+2)}
}

func suiteBipartite(seed int64, s float64) input {
	return input{"suite-bipartite", gen.BipartiteBlock(scaled(150_000, s), 16, seed+3)}
}

func suiteLayered(seed int64, s float64) input {
	return input{"suite-layered", gen.Layered(scaled(100_000, s), 512, 6, 0, seed+4)}
}

func suitePowerLaw(seed int64, s float64) input {
	return input{"suite-powerlaw", gen.PowerLaw(scaled(80_000, s), 4, 0.01, seed+5)}
}

func suiteChain(seed int64, s float64) input {
	return input{"suite-chain", gen.SerialChain(scaled(60_000, s), 0.3, seed+7)}
}

// suiteILU0 is the ILU(0) lower factor of the 5-point SPD Laplacian. It
// has no random part, so it is the same matrix for every seed.
func suiteILU0(s float64) input {
	side := max(int(200*math.Sqrt(s)), 8)
	l, _, err := sptrsv.ILU0(sptrsv.GridSPD(side, side))
	if err != nil {
		panic(err) // the Laplacian cannot break down
	}
	return input{"suite-ilu0", l}
}
