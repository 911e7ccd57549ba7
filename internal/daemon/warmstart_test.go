package daemon

import (
	"context"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/metrics"
	"github.com/sss-lab/blocksptrsv/internal/plancache"
)

// TestWarmStartSkipsAnalysis is the restart story end to end: a daemon
// populates a plan-cache directory, a second daemon (fresh Cache value,
// same directory — a process restart in miniature) registers the same
// matrix, and the block layer's "analyzes" counter proves the second
// registration performed zero analyses. The warm daemon must still solve
// correctly, since its plan came off disk.
func TestWarmStartSkipsAnalysis(t *testing.T) {
	dir := t.TempDir()
	l := gen.Layered(1500, 30, 5, 0.1, 701)
	analyzes := metrics.Default.Counter("analyzes")

	boot := func(name string) (*Daemon, *plancache.Cache) {
		t.Helper()
		cache, err := plancache.Open(plancache.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		d := New(Config{Workers: 1, PlanCache: cache})
		if err := d.AddMatrix(name, l, block.Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		return d, cache
	}
	stop := func(d *Daemon) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}

	before := analyzes.Value()
	d1, c1 := boot("m")
	if got := analyzes.Value() - before; got != 1 {
		t.Fatalf("cold AddMatrix ran %d analyses, want 1", got)
	}
	if st := c1.Stats(); st.Stores != 1 {
		t.Fatalf("cold AddMatrix stored %d plans, want 1: %+v", st.Stores, st)
	}
	stop(d1)

	warm := analyzes.Value()
	d2, c2 := boot("m")
	if got := analyzes.Value() - warm; got != 0 {
		t.Fatalf("warm AddMatrix ran %d analyses, want 0 (plan should load from %s)", got, dir)
	}
	if st := c2.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("warm AddMatrix: hits %d misses %d, want 1/0: %+v", st.Hits, st.Misses, st)
	}
	b := gen.RandVec(l.Rows, 702)
	x, err := d2.Solve(context.Background(), "m", b)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	checkSolution(t, l, b, x)
	stop(d2)
}

// TestWarmStartLoadsSolverStream is TestWarmStartSkipsAnalysis for a
// plan the cache stores as its solver stream: a reordered grid is one
// permuted serial leaf, where gen.Layered's plan is one leaf in place,
// stored as the walk's decision alone.
func TestWarmStartLoadsSolverStream(t *testing.T) {
	dir := t.TempDir()
	l := gen.GridLaplacian5(40, 40, 704)
	opts := block.Options{Workers: 2, Reorder: true}
	analyzes := metrics.Default.Counter("analyzes")
	for run, want := range []int64{1, 0} {
		cache, err := plancache.Open(plancache.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		before := analyzes.Value()
		d := New(Config{Workers: 1, PlanCache: cache})
		if err := d.AddMatrix("m", l, opts); err != nil {
			t.Fatal(err)
		}
		st := cache.Stats()
		if got := analyzes.Value() - before; got != want || st.Stores+st.Hits != 1 {
			t.Fatalf("run %d: %d analyses, %d stores, %d hits; want %d analyses and one store or hit", run, got, st.Stores, st.Hits, want)
		}
		if st.ResidentBytes < int64(l.NNZ()) {
			t.Fatalf("run %d: a %d-byte payload is no solver stream of %d entries", run, st.ResidentBytes, l.NNZ())
		}
		b := gen.RandVec(l.Rows, 705)
		x, err := d.Solve(context.Background(), "m", b)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		checkSolution(t, l, b, x)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = d.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestAddMatrixOptionCacheOverridesConfig pins the precedence: an
// AddMatrix that brings its own Options.PlanCache keeps it, the daemon
// default only fills the gap.
func TestAddMatrixOptionCacheOverridesConfig(t *testing.T) {
	own, err := plancache.Open(plancache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := plancache.Open(plancache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	d := New(Config{Workers: 1, PlanCache: shared})
	l := gen.Layered(800, 20, 4, 0.1, 703)
	if err := d.AddMatrix("own", l, block.Options{Workers: 2, PlanCache: own}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddMatrix("shared", l, block.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if st := own.Stats(); st.Stores != 1 {
		t.Fatalf("explicit cache saw %d stores, want 1: %+v", st.Stores, st)
	}
	if st := shared.Stats(); st.Stores != 1 {
		t.Fatalf("config cache saw %d stores, want 1: %+v", st.Stores, st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
