package daemon

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/trace"
)

// The daemon's side of the flight recorder: outcome classification, the
// per-request finish hook (phase histograms + SLO observation + snapshot
// triggers), and the automatic black-box captures. The recorder itself
// lives in internal/trace; this file decides when its snapshots fire.

// Flight returns the daemon's always-on flight recorder, for dumping
// (SIGQUIT handlers, /debug/flight) or inspection in tests.
func (d *Daemon) Flight() *trace.FlightRecorder { return d.rec }

// classifyOutcome maps a Solve error to the flight-record outcome. The
// span's expired tag wins over the raw context error: both surface as
// context.DeadlineExceeded, but a request dropped at dequeue never cost
// a kernel call and must be distinguishable in the ring.
func classifyOutcome(err error, sp *trace.Span) trace.Outcome {
	if err == nil {
		return trace.OutcomeOK
	}
	var (
		overload *OverloadError
		fault    *SolveFault
		stall    *block.StallError
		residual *block.ResidualError
	)
	switch {
	case sp.Expired():
		return trace.OutcomeExpired
	case errors.As(err, &overload):
		return trace.OutcomeShed
	case errors.Is(err, ErrDraining):
		return trace.OutcomeDraining
	case errors.As(err, &fault):
		return trace.OutcomeFault
	case errors.As(err, &stall):
		return trace.OutcomeStall
	case errors.As(err, &residual):
		return trace.OutcomeResidual
	case errors.Is(err, context.DeadlineExceeded):
		return trace.OutcomeDeadline
	case errors.Is(err, context.Canceled):
		return trace.OutcomeCanceled
	default:
		return trace.OutcomeError
	}
}

// finishRequest runs once per finished request, off the solve path (the
// submitter's goroutine, after the worker handed the result back): phase
// histograms, the SLO window, and the fault/stall snapshot triggers.
func (d *Daemon) finishRequest(p *pipeline, rec trace.Record) {
	mTotalNs.Observe(rec.Total)
	if rec.Coalesce > 0 {
		mCoalesceNs.Observe(rec.Coalesce)
	}
	if rec.Solve > 0 {
		mSolveNs.Observe(rec.Solve)
	}
	if p != nil {
		p.slo.observe(rec.Total, rec.Outcome.Failed(), time.Now())
	}
	switch rec.Outcome {
	case trace.OutcomeFault:
		d.snapshot("fault", rec.ID)
	case trace.OutcomeStall:
		d.snapshot("stall", rec.ID)
	}
}

// snapshotMinInterval spaces automatic captures: a failure storm retains
// its first and most recent snapshots instead of thrashing goroutine
// dumps on every faulted request.
const snapshotMinInterval = time.Second

// overloadBurst sheds within overloadBurstWindow trigger one automatic
// "overload-burst" snapshot — sustained backpressure is an event worth a
// black-box capture, a lone 429 is not.
const (
	overloadBurst       = 32
	overloadBurstWindow = time.Second
)

// snapshot captures a rate-limited automatic snapshot with the current
// queue depths as detail.
func (d *Daemon) snapshot(reason, requestID string) {
	d.snapMu.Lock()
	now := time.Now()
	if !d.lastSnap.IsZero() && now.Sub(d.lastSnap) < snapshotMinInterval {
		d.snapMu.Unlock()
		return
	}
	d.lastSnap = now
	d.snapMu.Unlock()
	d.rec.CaptureSnapshot(reason, requestID, d.queueDetail())
	mSnapshots.Inc()
}

// noteShed feeds the overload-burst detector from the admission shed
// path.
func (d *Daemon) noteShed() {
	d.snapMu.Lock()
	now := time.Now()
	if now.Sub(d.burstStart) > overloadBurstWindow {
		d.burstStart, d.burstN = now, 0
	}
	d.burstN++
	trip := d.burstN == overloadBurst
	d.snapMu.Unlock()
	if trip {
		d.snapshot("overload-burst", "")
	}
}

// queueDetail renders every matrix's queue state for snapshot capture.
func (d *Daemon) queueDetail() string {
	var sb strings.Builder
	for _, st := range d.Stats() {
		fmt.Fprintf(&sb, "queue %s: %d/%d queued, %d shed, %d expired, %d errors\n",
			st.Name, st.Queued, st.Capacity, st.Shed, st.Expired, st.Errors)
	}
	return strings.TrimRight(sb.String(), "\n")
}
