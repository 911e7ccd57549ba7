package block

import (
	"math"
	"sync"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
)

func TestSessionsSolveConcurrently(t *testing.T) {
	// Force sync-free kernels so the mutable-state isolation is actually
	// exercised — shared counters would corrupt each other immediately.
	l := gen.Layered(3000, 60, 5, 0.2, 600)
	s, err := Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 400, Reorder: true,
		ForceTri: kernels.TriSyncFree, ForceSpMV: kernels.SpMVScalarCSR,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.TriKernelCounts()[kernels.TriSyncFree] == 0 {
		t.Fatal("test needs sync-free blocks")
	}

	const goroutines = 6
	const solvesEach = 10
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ses := s.NewSession()
			b := gen.RandVec(l.Rows, int64(700+g))
			x := make([]float64, l.Rows)
			for iter := 0; iter < solvesEach; iter++ {
				ses.Solve(b, x)
				if r := residual(l, x, b); r > 1e-9 {
					errs <- "residual too large"
					return
				}
			}
			if ses.Stats().Solves != solvesEach {
				errs <- "session stats wrong"
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestSessionMatchesSolver(t *testing.T) {
	l := gen.Layered(1200, 25, 4, 0.1, 601)
	s, err := Preprocess(l, Options{Workers: 3, Kind: Recursive, MinBlockRows: 200, Reorder: true,
		Thresholds: paperThresholds()})
	if err != nil {
		t.Fatal(err)
	}
	ses := s.NewSession()
	if ses.Rows() != s.Rows() || ses.Name() != s.Name() {
		t.Fatal("session metadata")
	}
	b := gen.RandVec(l.Rows, 602)
	x1 := make([]float64, l.Rows)
	x2 := make([]float64, l.Rows)
	s.Solve(b, x1)
	ses.Solve(b, x2)
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-10*(1+math.Abs(x1[i])) {
			t.Fatalf("session deviates at %d", i)
		}
	}
	// Batched path through the session.
	const k = 4
	rhs := make([][]float64, k)
	for r := range rhs {
		rhs[r] = gen.RandVec(l.Rows, int64(610+r))
	}
	packed := InterleaveRHS(rhs)
	out := make([]float64, l.Rows*k)
	ses.SolveBatch(packed, out, k)
	for r := 0; r < k; r++ {
		got := make([]float64, l.Rows)
		for i := range got {
			got[i] = out[i*k+r]
		}
		if rr := residual(l, got, rhs[r]); rr > 1e-9 {
			t.Fatalf("batched session rhs %d residual %g", r, rr)
		}
	}
	// k=1 delegates to the single-vector path.
	ses.SolveBatch(b, x2, 1)
	if rr := residual(l, x2, b); rr > 1e-9 {
		t.Fatalf("k=1 session residual %g", rr)
	}
}

func TestSessionsBatchConcurrently(t *testing.T) {
	l := gen.Layered(1500, 30, 4, 0.2, 603)
	s, err := Preprocess(l, Options{
		Workers: 2, Kind: Recursive, MinBlockRows: 250, Reorder: true,
		ForceTri: kernels.TriSyncFree, ForceSpMV: kernels.SpMVScalarCSR,
	})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	const k = 3
	var wg sync.WaitGroup
	fail := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ses := s.NewSession()
			rhs := make([][]float64, k)
			for r := range rhs {
				rhs[r] = gen.RandVec(l.Rows, int64(800+g*10+r))
			}
			packed := InterleaveRHS(rhs)
			out := make([]float64, l.Rows*k)
			for iter := 0; iter < 5; iter++ {
				ses.SolveBatch(packed, out, k)
			}
			for r := 0; r < k; r++ {
				got := make([]float64, l.Rows)
				for i := range got {
					got[i] = out[i*k+r]
				}
				if rr := residual(l, got, rhs[r]); rr > 1e-9 {
					fail <- "batch residual too large"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(fail)
	for e := range fail {
		t.Fatal(e)
	}
}
