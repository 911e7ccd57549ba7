package block

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/gen"
)

// The guarded batch path must produce exactly what the unguarded batch
// path produces — same kernels, same arithmetic, only the guard plumbing
// differs. One worker fixes the launch schedule, and with it the order of
// the kernels' atomic scatter adds, so the comparison can be bitwise.
func TestSolveBatchContextMatchesSolveBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(210))
	for name, l := range testMatrices() {
		for _, k := range []int{1, 3, 6} {
			s, err := Preprocess(l, Options{
				Workers: 1, Kind: Recursive, MinBlockRows: 150,
				Reorder: true, Adaptive: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			n := l.Rows
			rhs := make([][]float64, k)
			for r := range rhs {
				rhs[r] = gen.RandVec(n, rng.Int63())
			}
			packed := InterleaveRHS(rhs)
			want := make([]float64, n*k)
			s.SolveBatch(packed, want, k)
			got := make([]float64, n*k)
			if err := s.SolveBatchContext(context.Background(), packed, got, k); err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d: guarded batch deviates at %d: %g vs %g", name, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSolveBatchContextArgErrors(t *testing.T) {
	l := gen.Layered(300, 10, 4, 0, 211)
	s, err := Preprocess(l, Options{Workers: 2, Kind: Recursive, MinBlockRows: 64, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	n := l.Rows
	cases := []struct{ lb, lx, k int }{
		{n * 2, n * 2, 0},   // k <= 0
		{n, n * 2, 2},       // short b
		{n * 2, n, 2},       // short x
		{n*2 + 1, n * 2, 2}, // long b
		{n * 3, n * 3, 2},   // k mismatch
	}
	for _, c := range cases {
		if err := s.SolveBatchContext(context.Background(), make([]float64, c.lb), make([]float64, c.lx), c.k); err == nil {
			t.Fatalf("lb=%d lx=%d k=%d: want error", c.lb, c.lx, c.k)
		}
	}
	// nil context is tolerated, like SolveContext.
	b := make([]float64, n*2)
	if err := s.SolveBatchContext(nil, b, make([]float64, n*2), 2); err != nil { //lint:ignore SA1012 nil ctx tolerance is part of the API
		t.Fatalf("nil ctx: %v", err)
	}
}

func TestSolveBatchContextCancelled(t *testing.T) {
	l := gen.Layered(2000, 40, 8, 0.1, 212)
	s, err := Preprocess(l, Options{Workers: 2, Kind: Recursive, MinBlockRows: 200, Reorder: true, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the solve must not start
	b := make([]float64, l.Rows*2)
	if err := s.SolveBatchContext(ctx, b, make([]float64, l.Rows*2), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// An expired deadline surfaces as DeadlineExceeded.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if err := s.SolveBatchContext(dctx, b, make([]float64, l.Rows*2), 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// k=1 must delegate to the fully guarded single-RHS path (which includes
// the verification ladder).
func TestSolveBatchContextK1Delegates(t *testing.T) {
	l := gen.SerialChain(200, 0.2, 213)
	s, err := Preprocess(l, Options{Workers: 2, Kind: Recursive, MinBlockRows: 40, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	b := gen.RandVec(200, 214)
	x1 := make([]float64, 200)
	x2 := make([]float64, 200)
	if err := s.SolveContext(context.Background(), b, x1); err != nil {
		t.Fatal(err)
	}
	if err := s.SolveBatchContext(context.Background(), b, x2, 1); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("k=1 guarded batch differs at %d", i)
		}
	}
}

// Sessions of one solver must run guarded batch solves concurrently and
// correctly — the daemon's worker pool depends on it.
func TestSessionSolveBatchContextConcurrent(t *testing.T) {
	l := gen.Layered(1200, 30, 6, 0.15, 215)
	s, err := Preprocess(l, Options{Workers: 2, Kind: Recursive, MinBlockRows: 150, Reorder: true, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	n := l.Rows
	const k = 4
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ses := s.NewSession()
			rng := rand.New(rand.NewSource(int64(300 + w)))
			for iter := 0; iter < 5; iter++ {
				rhs := make([][]float64, k)
				for r := range rhs {
					rhs[r] = gen.RandVec(n, rng.Int63())
				}
				packed := InterleaveRHS(rhs)
				got := make([]float64, n*k)
				if err := ses.SolveBatchContext(context.Background(), packed, got, k); err != nil {
					errs <- err
					return
				}
				for r := 0; r < k; r++ {
					for i := 0; i < n; i++ {
						var sum float64
						for p := l.RowPtr[i]; p < l.RowPtr[i+1]; p++ {
							sum += l.Val[p] * got[l.ColIdx[p]*k+r]
						}
						if math.Abs(sum-rhs[r][i]) > 1e-9*(1+math.Abs(rhs[r][i])) {
							t.Errorf("worker %d iter %d rhs %d row %d wrong", w, iter, r, i)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
