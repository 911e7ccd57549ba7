package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var _ Launcher = (*SpinPool)(nil)

// The shared behavioural suite lives in launcher_conformance_test.go; this
// file covers the machinery specific to the spin-barrier protocol.

func TestSpinPoolCloseIdempotentAndPanicsAfter(t *testing.T) {
	p := NewSpinPool(2)
	p.Close()
	p.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on use-after-close")
		}
	}()
	p.Run(func(int) {})
}

// A Close racing a launch in flight — an implicit launcher's cleanup may
// run while its last launch still executes — must let the launch finish:
// workers that observed the pool closed mid-epoch would leave without
// reaching the completion barrier, and the launch would never return. On
// one P the closing goroutine runs before the woken workers, which makes
// that interleaving the deterministic one.
func TestSpinPoolCloseDuringLaunch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := NewSpinPool(3)
	started, release, launched, closed := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(launched)
		p.Run(func(w int) {
			if w == 0 {
				close(started)
				<-release
			}
		})
	}()
	<-started
	go func() {
		defer close(closed)
		p.Close()
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	for _, ch := range []chan struct{}{launched, closed} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("Close stranded the launch in flight: Run or Close never returned")
		}
	}
}

// Workers must park after the spin budget and still wake for the next
// epoch — the Broadcast path that a purely back-to-back launch sequence
// never exercises. Run (not ParallelFor) so real dispatch happens even on
// a single-P runtime where ParallelFor inlines.
func TestSpinPoolWakesParkedWorkers(t *testing.T) {
	p := NewSpinPool(3)
	defer p.Close()
	for round := 0; round < 3; round++ {
		// Wait until the resident workers have burned their yield budget
		// and parked (milliseconds on any machine).
		deadline := time.Now().Add(5 * time.Second)
		for p.parked.Load() != int32(p.workers-1) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: workers never parked (parked=%d)", round, p.parked.Load())
			}
			time.Sleep(time.Millisecond)
		}
		seen := make([]atomic.Int32, 3)
		p.Run(func(w int) { seen[w].Add(1) })
		for w := range seen {
			if seen[w].Load() != 1 {
				t.Fatalf("round %d: worker %d ran %d times", round, w, seen[w].Load())
			}
		}
	}
}

// A worker whose own shard is empty (n < workers) or exhausted must steal
// the leftovers, so a single enormous shard still finishes even when only
// the thief is running it.
func TestSpinPoolStealingCoversImbalance(t *testing.T) {
	p := NewSpinPool(4)
	defer p.Close()
	// n=5 over 4 workers: shards of 2,1,1,1. grain 1 forces per-chunk
	// cursor traffic through every shard including steals.
	var hits [5]atomic.Int32
	p.ParallelFor(5, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d hit %d times", i, hits[i].Load())
		}
	}
}

func TestSpinPoolConcurrentLaunchesSerialise(t *testing.T) {
	p := NewSpinPool(3)
	defer p.Close()
	var active, maxActive atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.ParallelFor(100, 10, func(lo, hi int) {
				a := active.Add(1)
				for {
					m := maxActive.Load()
					if a <= m || maxActive.CompareAndSwap(m, a) {
						break
					}
				}
				active.Add(-1)
			})
		}()
	}
	wg.Wait()
	if maxActive.Load() > 3 {
		t.Fatalf("launches interleaved: %d active bodies", maxActive.Load())
	}
}

// Alternating ParallelFor and Run on the same pool must not leak one job
// descriptor into the other (runBody/body are cleared on each publish).
func TestSpinPoolAlternatingLaunchKinds(t *testing.T) {
	p := NewSpinPool(3)
	defer p.Close()
	for i := 0; i < 10; i++ {
		var forSum atomic.Int64
		p.ParallelFor(300, 7, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				forSum.Add(1)
			}
		})
		if forSum.Load() != 300 {
			t.Fatalf("iter %d: ParallelFor covered %d of 300", i, forSum.Load())
		}
		seen := make([]atomic.Int32, 3)
		p.Run(func(w int) { seen[w].Add(1) })
		for w := range seen {
			if seen[w].Load() != 1 {
				t.Fatalf("iter %d: worker %d ran %d times", i, w, seen[w].Load())
			}
		}
	}
}

// A finished launch body must not stay in the pool, panicking or not: it
// may capture the solver that holds the pool's implicit launcher, and the
// guarded solve path recovers kernel panics, so a solver whose last
// launch panicked would otherwise pin itself and the resident workers.
func TestSpinPoolDropsFinishedBodies(t *testing.T) {
	p := NewSpinPool(3)
	defer p.Close()
	for _, panics := range []bool{false, true} {
		capturePanic(func() {
			p.Run(func(w int) {
				if panics && w == 1 {
					panic("boom")
				}
			})
		})
		capturePanic(func() {
			p.ParallelFor(300, 1, func(lo, _ int) {
				if panics && lo == 0 {
					panic("boom")
				}
			})
		})
		if p.body != nil || p.runBody != nil {
			t.Fatalf("panicking=%v: pool still holds a finished launch body", panics)
		}
	}
}

func TestSpinPoolSequentialSpawnsNoWorkers(t *testing.T) {
	p := NewSpinPool(1)
	defer p.Close()
	if !p.Sequential() {
		t.Fatal("1-worker SpinPool should be sequential")
	}
	done := false
	p.Run(func(w int) { done = true }) // plain write: must be inline
	if !done {
		t.Fatal("inline Run did not run")
	}
}

// The epoch protocol must survive many rapid launches without dropping a
// worker (a missed wakeup would deadlock the completion barrier; run with
// -race to check the descriptor hand-off ordering too).
func TestSpinPoolManyRapidLaunches(t *testing.T) {
	p := NewSpinPool(4)
	defer p.Close()
	var total atomic.Int64
	for i := 0; i < 1000; i++ {
		p.ParallelFor(64, 4, func(lo, hi int) {
			total.Add(int64(hi - lo))
		})
		p.Run(func(w int) { total.Add(1) })
	}
	if want := int64(1000 * (64 + 4)); total.Load() != want {
		t.Fatalf("covered %d of %d", total.Load(), want)
	}
}
