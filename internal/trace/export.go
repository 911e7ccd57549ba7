package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Exports of the flight ring: a per-request span tree in Chrome
// trace_event JSON, an aligned text table, and the flight dump (ring plus
// fault snapshots) in text or JSON. All exports copy the ring under its
// mutex and format outside it.

// requestJSON is a request's identity, batch, solve id and outcome: the
// head of both its Chrome span args and its flight JSON record.
type requestJSON struct {
	ID      string `json:"id"`
	Matrix  string `json:"matrix"`
	Outcome string `json:"outcome"`
	Batch   int32  `json:"batch"`
	SolveID int64  `json:"solve_id"`
}

func requestToJSON(rec Record) requestJSON {
	return requestJSON{rec.ID, rec.Matrix, rec.Outcome.String(), rec.Batch, rec.SolveID}
}

// slackNs is the record's deadline slack in ns, or nil without a deadline.
func slackNs(rec Record) *int64 {
	if !rec.HasDeadline {
		return nil
	}
	ns := rec.DeadlineSlack.Nanoseconds()
	return &ns
}

// WriteChromeTrace writes the retained records as Chrome trace_event
// JSON. Each request is one timeline row (tid = its sequence number)
// carrying a parent "request" span and a child span per recorded phase.
// Identity, batch geometry, the solve id and the outcome travel in args.
// A request that links its solve's steps (Record.Steps) carries copies of
// them on its row, inside its solve phase, at the times the step
// recorder's own export shows.
func (r *FlightRecorder) WriteChromeTrace(w io.Writer) error {
	var events []event
	bySolve := map[*StepRecorder]map[int64][]event{}
	for _, rec := range r.Records() {
		t0 := rec.Ingress.Sub(origin)
		args := struct {
			requestJSON
			DeadlineSlackNs *int64 `json:"deadline_slack_ns,omitempty"`
		}{requestToJSON(rec), slackNs(rec)}
		events = append(events, newEvent("request", "request", rec.Seq, t0, rec.Total, args))
		at := t0
		for _, ph := range []struct {
			name string
			dur  time.Duration
		}{
			{"admit", rec.Admit}, {"queue-wait", rec.QueueWait}, {"coalesce-hold", rec.Coalesce},
			{"solve", rec.Solve}, {"respond", rec.Respond()},
		} {
			if ph.dur > 0 {
				events = append(events, newEvent(ph.name, "phase", rec.Seq, at, ph.dur, map[string]string{"id": rec.ID}))
			}
			at += ph.dur
		}
		if sr := rec.Steps; sr != nil && rec.SolveID != 0 && bySolve[sr] == nil {
			bySolve[sr] = map[int64][]event{}
			for _, ev := range sr.events() {
				bySolve[sr][ev.TID] = append(bySolve[sr][ev.TID], ev)
			}
		}
		for _, ev := range bySolve[rec.Steps][rec.SolveID] {
			ev.TID = rec.Seq
			events = append(events, ev)
		}
	}
	return writeChrome(w, events)
}

// WriteTable writes the retained records as an aligned text table,
// oldest-first.
func (r *FlightRecorder) WriteTable(w io.Writer) error {
	recs := r.Records()
	if _, err := fmt.Fprintf(w, "%6s %-17s %-10s %-8s %5s %8s %12s %12s %12s %12s %12s\n",
		"seq", "id", "matrix", "outcome", "batch", "solve", "queue-wait", "coalesce", "solve-time", "total", "slack"); err != nil {
		return err
	}
	for _, rec := range recs {
		slack := "-"
		if rec.HasDeadline {
			slack = rec.DeadlineSlack.Round(time.Microsecond).String()
		}
		if _, err := fmt.Fprintf(w, "%6d %-17s %-10s %-8s %5d %8d %12v %12v %12v %12v %12s\n",
			rec.Seq, rec.ID, rec.Matrix, rec.Outcome, rec.Batch, rec.SolveID,
			rec.QueueWait.Round(time.Microsecond), rec.Coalesce.Round(time.Microsecond),
			rec.Solve.Round(time.Microsecond), rec.Total.Round(time.Microsecond), slack); err != nil {
			return err
		}
	}
	if d := r.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "(%d older requests dropped by the bounded ring)\n", d); err != nil {
			return err
		}
	}
	return nil
}

// recordJSON is the machine-readable form of a Record.
type recordJSON struct {
	Seq int64 `json:"seq"`
	requestJSON
	IngressUnixNs   int64  `json:"ingress_unix_ns"`
	AdmitNs         int64  `json:"admit_ns"`
	QueueWaitNs     int64  `json:"queue_wait_ns"`
	CoalesceNs      int64  `json:"coalesce_ns"`
	SolveNs         int64  `json:"solve_ns"`
	RespondNs       int64  `json:"respond_ns"`
	TotalNs         int64  `json:"total_ns"`
	DeadlineSlackNs *int64 `json:"deadline_slack_ns,omitempty"`
}

func recordToJSON(rec Record) recordJSON {
	return recordJSON{
		Seq:             rec.Seq,
		requestJSON:     requestToJSON(rec),
		IngressUnixNs:   rec.Ingress.UnixNano(),
		AdmitNs:         rec.Admit.Nanoseconds(),
		QueueWaitNs:     rec.QueueWait.Nanoseconds(),
		CoalesceNs:      rec.Coalesce.Nanoseconds(),
		SolveNs:         rec.Solve.Nanoseconds(),
		RespondNs:       rec.Respond().Nanoseconds(),
		TotalNs:         rec.Total.Nanoseconds(),
		DeadlineSlackNs: slackNs(rec),
	}
}

// snapshotJSON is the machine-readable form of a Snapshot.
type snapshotJSON struct {
	WhenUnixNs int64        `json:"when_unix_ns"`
	Reason     string       `json:"reason"`
	RequestID  string       `json:"request_id,omitempty"`
	Detail     string       `json:"detail,omitempty"`
	Records    []recordJSON `json:"records"`
	Goroutines string       `json:"goroutines"`
}

// flightJSON is the /debug/flight?format=json payload.
type flightJSON struct {
	Total     int64          `json:"total"`
	Dropped   int64          `json:"dropped"`
	Records   []recordJSON   `json:"records"`
	Snapshots []snapshotJSON `json:"snapshots"`
}

// WriteFlightJSON writes the whole flight state — ring plus snapshots —
// as one JSON object.
func (r *FlightRecorder) WriteFlightJSON(w io.Writer) error {
	recs := r.Records()
	out := flightJSON{Total: r.Total(), Dropped: r.Dropped()}
	out.Records = make([]recordJSON, len(recs))
	for i, rec := range recs {
		out.Records[i] = recordToJSON(rec)
	}
	for _, snap := range r.Snapshots() {
		sj := snapshotJSON{
			WhenUnixNs: snap.When.UnixNano(),
			Reason:     snap.Reason,
			RequestID:  snap.RequestID,
			Detail:     snap.Detail,
			Goroutines: string(snap.Goroutines),
			Records:    make([]recordJSON, len(snap.Records)),
		}
		for i, rec := range snap.Records {
			sj.Records[i] = recordToJSON(rec)
		}
		out.Snapshots = append(out.Snapshots, sj)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteFlight writes the flight dump as text: the request table followed
// by every retained snapshot with its goroutine dump. This is what the
// daemon prints on SIGQUIT and serves at /debug/flight.
func (r *FlightRecorder) WriteFlight(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "flight recorder: %d requests recorded, %d retained, %d snapshots\n\n",
		r.Total(), r.Len(), len(r.Snapshots())); err != nil {
		return err
	}
	if err := r.WriteTable(w); err != nil {
		return err
	}
	for i, snap := range r.Snapshots() {
		if _, err := fmt.Fprintf(w, "\n--- snapshot %d: %s at %s", i+1, snap.Reason, snap.When.Format(time.RFC3339Nano)); err != nil {
			return err
		}
		if snap.RequestID != "" {
			if _, err := fmt.Fprintf(w, " (request %s)", snap.RequestID); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w, " ---"); err != nil {
			return err
		}
		if snap.Detail != "" {
			if _, err := fmt.Fprintln(w, snap.Detail); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "last %d request records at capture:\n", len(snap.Records)); err != nil {
			return err
		}
		for _, rec := range snap.Records {
			if _, err := fmt.Fprintf(w, "  %6d %-17s %-10s %-8s batch=%d solve=%d total=%v\n",
				rec.Seq, rec.ID, rec.Matrix, rec.Outcome, rec.Batch, rec.SolveID, rec.Total.Round(time.Microsecond)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "goroutines:\n%s\n", snap.Goroutines); err != nil {
			return err
		}
	}
	return nil
}
