//go:build faultinject

package daemon

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/faultinject"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/trace"
)

// The daemon chaos suite (`make chaos`): fault hooks drive the service
// into overload and panic, and the assertions are the robustness
// headline — typed errors only, zero crashes, clean drain.

// TestChaosSlowSolveShedsTyped arms the queue-delay hook so every batch
// solve crawls, saturates the tiny admission queue with a burst, and
// requires that every single outcome is either a success or a typed
// backpressure/deadline error — and that the overload actually shed.
func TestChaosSlowSolveShedsTyped(t *testing.T) {
	faultinject.Reset()
	faultinject.ArmSlow("daemon-solve", 30*time.Millisecond)
	defer faultinject.Reset()

	l := gen.Layered(500, 20, 4, 0.1, 1100)
	d := New(Config{Workers: 1, MaxQueue: 2, MaxBatch: 2, Window: -1, DefaultTimeout: 2 * time.Second})
	if err := d.AddMatrix("m", l, block.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}

	const burst = 32
	var wg sync.WaitGroup
	outcomes := make([]error, burst)
	for c := 0; c < burst; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b := gen.RandVec(l.Rows, int64(1200+c))
			_, outcomes[c] = d.Solve(context.Background(), "m", b)
		}(c)
	}
	wg.Wait()

	var ok, shed, deadlined int
	for c, err := range outcomes {
		var overload *OverloadError
		switch {
		case err == nil:
			ok++
		case errors.As(err, &overload):
			shed++
		case errors.Is(err, context.DeadlineExceeded):
			deadlined++
		default:
			t.Fatalf("request %d failed untyped: %v", c, err)
		}
	}
	if ok == 0 {
		t.Fatal("nothing succeeded under slow-solve chaos")
	}
	if shed == 0 {
		t.Fatalf("queue of 2 absorbed a burst of %d without shedding (ok %d, deadlined %d)", burst, ok, deadlined)
	}
	st := d.Stats()[0]
	if st.Shed != int64(shed) {
		t.Fatalf("stats.Shed = %d, observed %d", st.Shed, shed)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("drain under chaos: %v", err)
	}
}

// TestChaosPanicIsolatedAndRecovered arms a kernel panic, proves every
// in-flight request fails with the typed *SolveFault instead of crashing
// the process, then disarms and proves the daemon still solves — the
// poisoned session was really discarded.
func TestChaosPanicIsolatedAndRecovered(t *testing.T) {
	faultinject.Reset()
	faultinject.ArmPanic("tri-block", 0)

	l := gen.Layered(500, 20, 4, 0.1, 1300)
	d := New(Config{Workers: 1, MaxBatch: 4, Window: 100 * time.Millisecond})
	if err := d.AddMatrix("m", l, block.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		faultinject.Reset()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	const burst = 3
	var wg sync.WaitGroup
	outcomes := make([]error, burst)
	for c := 0; c < burst; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b := gen.RandVec(l.Rows, int64(1400+c))
			_, outcomes[c] = d.Solve(context.Background(), "m", b)
		}(c)
	}
	wg.Wait()
	for c, err := range outcomes {
		var fault *SolveFault
		if !errors.As(err, &fault) {
			t.Fatalf("request %d: got %v, want *SolveFault", c, err)
		}
	}
	st := d.Stats()[0]
	if st.Recovered == 0 {
		t.Fatal("no recovered panic counted")
	}
	if st.Errors != burst {
		t.Fatalf("errors = %d, want %d", st.Errors, burst)
	}

	// Disarm: the very next solve must succeed on a fresh session.
	faultinject.Reset()
	b := gen.RandVec(l.Rows, 1500)
	x, err := d.Solve(context.Background(), "m", b)
	if err != nil {
		t.Fatalf("post-chaos solve: %v", err)
	}
	checkSolution(t, l, b, x)
}

// TestChaosFaultSnapshotCapturesRequestID arms a kernel panic and proves
// the flight recorder's automatic black-box capture fires: the snapshot
// is tagged "fault", carries the faulting request's ID, retains the ring
// records (the faulted request among them, with outcome fault), includes
// the queue-depth detail, and holds a goroutine dump.
func TestChaosFaultSnapshotCapturesRequestID(t *testing.T) {
	faultinject.Reset()
	faultinject.ArmPanic("tri-block", 0)
	defer faultinject.Reset()

	l := gen.Layered(500, 20, 4, 0.1, 1800)
	d := New(Config{Workers: 1, MaxBatch: 4, Window: -1})
	if err := d.AddMatrix("m", l, block.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	sp := trace.StartSpan("")
	b := gen.RandVec(l.Rows, 1801)
	_, err := d.SolveSpan(context.Background(), "m", b, sp)
	var fault *SolveFault
	if !errors.As(err, &fault) {
		t.Fatalf("got %v, want *SolveFault", err)
	}

	snaps := d.Flight().Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1", len(snaps))
	}
	snap := snaps[0]
	if snap.Reason != "fault" {
		t.Fatalf("snapshot reason = %q", snap.Reason)
	}
	if snap.RequestID != sp.ID {
		t.Fatalf("snapshot request id = %q, want the faulting request %q", snap.RequestID, sp.ID)
	}
	if !strings.Contains(snap.Detail, "queue m:") {
		t.Fatalf("snapshot detail lost the queue state: %q", snap.Detail)
	}
	if !strings.Contains(string(snap.Goroutines), "goroutine") {
		t.Fatal("snapshot has no goroutine dump")
	}
	var found bool
	for _, rec := range snap.Records {
		if rec.ID == sp.ID && rec.Outcome == trace.OutcomeFault {
			found = true
		}
	}
	if !found {
		t.Fatalf("faulting request %s not among the snapshot's %d records", sp.ID, len(snap.Records))
	}

	// A second fault inside the rate-limit interval must not thrash
	// another goroutine dump.
	if _, err := d.SolveSpan(context.Background(), "m", b, nil); err == nil {
		t.Fatal("second armed solve succeeded")
	}
	if got := len(d.Flight().Snapshots()); got != 1 {
		t.Fatalf("rate limiter let %d snapshots through", got)
	}
}

// TestChaosSlowLoadgenDrains runs the whole HTTP + loadgen stack under
// the slow-solve hook: the run must classify failures as shed/deadline
// only (no transport-level or 5xx failures) and the daemon must still
// drain within budget afterwards.
func TestChaosSlowLoadgenDrains(t *testing.T) {
	faultinject.Reset()
	faultinject.ArmSlow("daemon-solve", 10*time.Millisecond)
	defer faultinject.Reset()

	l := gen.Layered(500, 20, 4, 0.1, 1600)
	d := New(Config{Workers: 1, MaxQueue: 4, MaxBatch: 4, Window: -1, DefaultTimeout: time.Second})
	if err := d.AddMatrix("m", l, block.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	res, err := RunLoad(LoadConfig{
		URL: srv.URL, Matrix: "m", Concurrency: 12,
		Duration: 400 * time.Millisecond, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d untyped failures under chaos: %+v", res.Failed, res)
	}
	if res.OK == 0 {
		t.Fatal("nothing succeeded")
	}
	if res.Shed == 0 {
		t.Fatalf("no backpressure under saturation: %+v", res)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("drain after chaos load: %v", err)
	}
}
