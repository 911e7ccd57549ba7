package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

// finishedSpan builds one fully-marked span with deterministic-ish phase
// ordering (real clock, but every boundary is marked in sequence).
func finishedSpan(id, matrix string, o Outcome) (*Span, Record) {
	sp := StartSpan(id)
	sp.Matrix = matrix
	sp.MarkEnqueued()
	sp.MarkDequeued()
	sp.MarkSolveStart()
	sp.MarkSolveEnd(nil, 42, 3)
	sp.SetDeadline(time.Now().Add(time.Second))
	return sp, sp.Finish(o)
}

func TestSpanPhasesSumToTotal(t *testing.T) {
	_, rec := finishedSpan("", "m", OutcomeOK)
	sum := rec.Admit + rec.QueueWait + rec.Coalesce + rec.Solve + rec.Respond()
	if sum != rec.Total {
		t.Fatalf("phases sum %v != total %v", sum, rec.Total)
	}
	if rec.Batch != 3 || rec.SolveID != 42 {
		t.Fatalf("batch/solve id lost: %+v", rec)
	}
	if !rec.HasDeadline || rec.DeadlineSlack <= 0 {
		t.Fatalf("deadline slack wrong: %+v", rec)
	}
	if rec.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", rec.Outcome)
	}
}

// TestSpanDecodePhase: a marked decode is its own phase, admission
// starts where it ends, and the phases still sum to the total; without
// a decode mark (a Go API call) Decode is 0 and admit starts at ingress.
func TestSpanDecodePhase(t *testing.T) {
	sp := StartSpan("")
	time.Sleep(time.Millisecond)
	sp.MarkDecoded()
	sp.MarkEnqueued()
	sp.MarkDequeued()
	sp.MarkSolveStart()
	sp.MarkSolveEnd(nil, 1, 1)
	rec := sp.Finish(OutcomeOK)
	if rec.Decode < time.Millisecond || rec.Admit >= rec.Decode {
		t.Fatalf("decode %v, admit %v: want the millisecond in decode, not admit", rec.Decode, rec.Admit)
	}
	if sum := rec.Decode + rec.Admit + rec.QueueWait + rec.Coalesce + rec.Solve + rec.Respond(); sum != rec.Total {
		t.Fatalf("phases sum %v != total %v", sum, rec.Total)
	}
	if _, rec := finishedSpan("", "m", OutcomeOK); rec.Decode != 0 {
		t.Fatalf("an undecoded span has decode %v", rec.Decode)
	}
}

func TestSpanIDs(t *testing.T) {
	for in, honored := range map[string]bool{
		"client-supplied-7": true, strings.Repeat("x", 128): true,
		strings.Repeat("x", 129): false, "na\u00efve-id": false,
	} {
		if sp := StartSpan(in); (sp.ID == in) != honored || len(sp.ID) == 0 || len(sp.ID) > 128 {
			t.Fatalf("StartSpan(%.20q) = %.20q, want honored=%v", in, sp.ID, honored)
		}
	}
	a, b := StartSpan(""), StartSpan("")
	if a.ID == "" || a.ID == b.ID {
		t.Fatalf("generated ids not unique: %q %q", a.ID, b.ID)
	}
}

func TestFinishIdempotent(t *testing.T) {
	sp, rec := finishedSpan("x", "m", OutcomeFault)
	time.Sleep(time.Millisecond)
	again := sp.Finish(OutcomeOK)
	if again != rec {
		t.Fatalf("second Finish rewrote the record:\n%+v\n%+v", rec, again)
	}
	if sp.Record() != rec {
		t.Fatal("Record() does not return the folded record")
	}
}

func TestOutcomeNames(t *testing.T) {
	want := map[Outcome]string{
		OutcomeOK: "ok", OutcomeExpired: "expired", OutcomeDeadline: "deadline",
		OutcomeCanceled: "canceled", OutcomeShed: "shed", OutcomeStall: "stall",
		OutcomeResidual: "residual", OutcomeFault: "fault", OutcomeDraining: "draining",
		OutcomeError: "error", OutcomeUnknown: "unknown", Outcome(99): "unknown",
	}
	for o, name := range want {
		if o.String() != name {
			t.Fatalf("%d.String() = %q, want %q", o, o.String(), name)
		}
	}
	if OutcomeOK.Failed() || !OutcomeExpired.Failed() || !OutcomeShed.Failed() {
		t.Fatal("Failed() classification wrong")
	}
}

func TestRingWrapAndDropped(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 7; i++ {
		_, rec := finishedSpan("", "m", OutcomeOK)
		seq := r.Record(rec)
		if seq != int64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if r.Len() != 4 || r.Total() != 7 || r.Dropped() != 3 {
		t.Fatalf("len=%d total=%d dropped=%d", r.Len(), r.Total(), r.Dropped())
	}
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != int64(4+i) {
			t.Fatalf("record %d has seq %d, want %d (oldest-first)", i, rec.Seq, 4+i)
		}
	}
}

func TestSnapshotCaptureAndCap(t *testing.T) {
	r := NewFlightRecorder(8)
	_, rec := finishedSpan("victim", "m", OutcomeFault)
	r.Record(rec)
	for i := 0; i < maxSnapshots+2; i++ {
		r.CaptureSnapshot("fault", "victim", "queue m: 3/8")
	}
	snaps := r.Snapshots()
	if len(snaps) != maxSnapshots {
		t.Fatalf("retained %d snapshots, want %d", len(snaps), maxSnapshots)
	}
	if r.SnapshotTotal() != maxSnapshots+2 {
		t.Fatalf("snapshot total = %d", r.SnapshotTotal())
	}
	s := snaps[len(snaps)-1]
	if s.Reason != "fault" || s.RequestID != "victim" || s.Detail != "queue m: 3/8" {
		t.Fatalf("snapshot fields: %+v", s)
	}
	if len(s.Records) != 1 || s.Records[0].ID != "victim" {
		t.Fatalf("snapshot records: %+v", s.Records)
	}
	if !bytes.Contains(s.Goroutines, []byte("goroutine")) {
		t.Fatal("goroutine dump missing")
	}
}

// TestWriteChromeTraceWellFormed: the request export is valid JSON with
// a request span per record and its phases on the same row, and a record
// that links its solve's steps carries them on its row at the times the
// step recorder's own export shows.
func TestWriteChromeTraceWellFormed(t *testing.T) {
	steps := NewStepRecorder(8)
	recordSolve(steps, time.Now()) // solve 1: no request links it
	RecordStep(steps, 42, 0, StepMeta{Tri: true, Rows: 8, Cols: 8, NNZ: 8, Levels: 1}, time.Now(), time.Microsecond)
	r := NewFlightRecorder(8)
	_, rec := finishedSpan("req-1", "demo", OutcomeOK) // solve id 42
	rec.Steps = steps
	r.Record(rec)
	_, rec2 := finishedSpan("req-2", "demo", OutcomeExpired) // links no recorder
	r.Record(rec2)

	type ev struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Tid  int64   `json:"tid"`
		Dur  float64 `json:"dur"`
		Args map[string]any
	}
	decode := func(write func(io.Writer) error) []ev {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []ev `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
			t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
		}
		return tr.TraceEvents
	}
	own := decode(steps.WriteChromeTrace)
	var requests, phases int
	var nested []ev
	for _, e := range decode(r.WriteChromeTrace) {
		if e.Ph != "X" {
			t.Fatalf("event %q has ph %q", e.Name, e.Ph)
		}
		switch e.Cat {
		case "request":
			requests++
			if e.Args["id"] == "" || e.Args["outcome"] == "" {
				t.Fatalf("request event args incomplete: %+v", e.Args)
			}
		case "phase":
			phases++
		default:
			nested = append(nested, e)
		}
	}
	if requests != 2 || phases == 0 {
		t.Fatalf("requests=%d phases=%d", requests, phases)
	}
	if len(nested) != 1 || nested[0].Tid != 1 || nested[0].TS != own[2].TS || nested[0].Name != own[2].Name {
		t.Fatalf("nested %+v, want solve 42's step %+v on request row 1 only", nested, own[2])
	}
}

func TestWriteTableAndFlight(t *testing.T) {
	r := NewFlightRecorder(2)
	for i := 0; i < 3; i++ {
		_, rec := finishedSpan("", "demo", OutcomeOK)
		r.Record(rec)
	}
	r.CaptureSnapshot("stall", "some-id", "queue demo: 2/2")

	var buf bytes.Buffer
	if err := r.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dropped by the bounded ring") {
		t.Fatalf("table missing drop note:\n%s", buf.String())
	}

	buf.Reset()
	if err := r.WriteFlight(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"flight recorder:", "snapshot 1: stall", "some-id", "queue demo: 2/2", "goroutine"} {
		if !strings.Contains(out, want) {
			t.Fatalf("flight dump missing %q:\n%s", want, out)
		}
	}
}

func TestWriteFlightJSON(t *testing.T) {
	r := NewFlightRecorder(4)
	sp := StartSpan("j1")
	sp.Matrix = "demo"
	sp.MarkEnqueued()
	sp.MarkDequeued()
	sp.MarkSolveStart()
	sp.MarkSolveEnd(nil, 7, 2)
	r.Record(sp.Finish(OutcomeOK))
	r.CaptureSnapshot("overload-burst", "", "queue demo: 4/4")

	var buf bytes.Buffer
	if err := r.WriteFlightJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Total   int64 `json:"total"`
		Records []struct {
			ID          string `json:"id"`
			Outcome     string `json:"outcome"`
			QueueWaitNs int64  `json:"queue_wait_ns"`
			CoalesceNs  int64  `json:"coalesce_ns"`
			SolveNs     int64  `json:"solve_ns"`
			TotalNs     int64  `json:"total_ns"`
			SolveID     int64  `json:"solve_id"`
		} `json:"records"`
		Snapshots []struct {
			Reason     string `json:"reason"`
			Goroutines string `json:"goroutines"`
		} `json:"snapshots"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("flight JSON invalid: %v", err)
	}
	if out.Total != 1 || len(out.Records) != 1 || out.Records[0].ID != "j1" || out.Records[0].SolveID != 7 {
		t.Fatalf("flight JSON wrong: %+v", out)
	}
	rec := out.Records[0]
	if sum := rec.QueueWaitNs + rec.CoalesceNs + rec.SolveNs; sum > rec.TotalNs {
		t.Fatalf("phases exceed total: %d > %d", sum, rec.TotalNs)
	}
	if len(out.Snapshots) != 1 || out.Snapshots[0].Reason != "overload-burst" || !strings.Contains(out.Snapshots[0].Goroutines, "goroutine") {
		t.Fatalf("snapshots wrong: %+v", out.Snapshots)
	}
}

// TestRecordAllocs pins the flight recorder's request-path cost: marking
// a span, finishing it, and appending the record to the ring allocate
// nothing. Only StartSpan (one *Span plus, for generated ids, the id
// string) allocates, once per request, at ingress.
func TestRecordAllocs(t *testing.T) {
	r := NewFlightRecorder(64)
	sp := StartSpan("pinned")
	sp.Matrix = "m"
	if n := testing.AllocsPerRun(200, func() {
		sp.MarkEnqueued()
		sp.MarkDequeued()
		sp.MarkSolveStart()
		sp.MarkSolveEnd(nil, 9, 4)
		sp.finished = false
		r.Record(sp.Finish(OutcomeOK))
	}); n != 0 {
		t.Fatalf("record path allocates %.1f times per request, want 0", n)
	}
}

func TestRecorderDefaults(t *testing.T) {
	if got := len(NewFlightRecorder(0).buf); got != 256 {
		t.Fatalf("default capacity = %d, want 256", got)
	}
	if got := len(NewFlightRecorder(-5).buf); got != 256 {
		t.Fatalf("negative capacity gave %d", got)
	}
}
