package trace

// Request-scoped tracing for the solver daemon: span timing for one
// request's journey through the service, and an always-on flight
// recorder holding the most recent request records plus black-box
// snapshots captured at fault time.
//
// The phase taxonomy follows the admission pipeline (DESIGN.md §6.12):
//
//	ingress ──decode──▶ decoded ──admit──▶ enqueued ──queue-wait──▶ dequeued
//	        ──coalesce-hold──▶ solve start ──solve──▶ solve end
//	        ──respond──▶ finished
//
// Only a request that arrived as a body has a decode phase (the HTTP
// handler marks it); for a Go API call admit starts at ingress.
//
// A Span travels with the request exactly as its deadline does — held by
// the queued request struct — and is marked by whichever goroutine owns
// the request at each boundary: the submitter at admission, the batch
// worker at dequeue/solve, the submitter again at finish. Finish folds
// the marks into an immutable Record; the daemon appends it to the
// FlightRecorder's ring. Recording is a struct copy under a short mutex
// and never allocates (pinned by TestRecordAllocs), so the flight
// recorder can stay on for every request the daemon ever serves.

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// Outcome classifies how a request was resolved. The zero value is
// OutcomeUnknown, which never appears in a finished record.
type Outcome uint8

const (
	OutcomeUnknown Outcome = iota
	// OutcomeOK is a solved request.
	OutcomeOK
	// OutcomeExpired is a request whose deadline passed while it was
	// queued: dropped at dequeue, before any kernel ran.
	OutcomeExpired
	// OutcomeDeadline is a request whose deadline fired after dequeue —
	// during or around the solve itself.
	OutcomeDeadline
	// OutcomeCanceled is a request whose context was canceled (the
	// client went away).
	OutcomeCanceled
	// OutcomeShed is a request refused at admission: the bounded queue
	// was full and typed backpressure fired.
	OutcomeShed
	// OutcomeStall is a solve the watchdog aborted.
	OutcomeStall
	// OutcomeResidual is a solve whose solution missed the residual
	// tolerance even after the recovery ladder.
	OutcomeResidual
	// OutcomeFault is a solve that panicked and was isolated into a
	// typed fault.
	OutcomeFault
	// OutcomeDraining is a request that arrived after shutdown began.
	OutcomeDraining
	// OutcomeError is any other solve failure.
	OutcomeError
)

var outcomeNames = [...]string{
	OutcomeUnknown:  "unknown",
	OutcomeOK:       "ok",
	OutcomeExpired:  "expired",
	OutcomeDeadline: "deadline",
	OutcomeCanceled: "canceled",
	OutcomeShed:     "shed",
	OutcomeStall:    "stall",
	OutcomeResidual: "residual",
	OutcomeFault:    "fault",
	OutcomeDraining: "draining",
	OutcomeError:    "error",
}

// String returns the stable, machine-readable outcome name.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// Failed reports whether the outcome is an error outcome (everything
// except OutcomeOK and OutcomeUnknown).
func (o Outcome) Failed() bool { return o != OutcomeOK && o != OutcomeUnknown }

// idPrefix distinguishes processes: two daemons restarted back to back
// must not reissue the same request ids, or flight dumps from different
// incarnations become unlinkable.
var idPrefix = func() uint32 {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the clock; uniqueness within the process is still
		// guaranteed by the sequence half of the id.
		return uint32(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint32(b[:])
}()

var idSeq atomic.Uint64

// newID mints a process-unique request id: a random process prefix plus
// a monotonic sequence number.
func newID() string {
	return fmt.Sprintf("%08x-%08x", idPrefix, uint32(idSeq.Add(1)))
}

// Span is one request's timing context, marked at each phase boundary as
// the request moves through the service. A Span is owned by exactly one
// goroutine at a time (the same ownership discipline as the request's
// result vector), so the marks need no synchronization.
type Span struct {
	// ID is the request id: the caller-provided one (an incoming
	// X-Request-Id that StartSpan honored) or a generated process-unique
	// id.
	ID string
	// Matrix is the target matrix name, set at admission.
	Matrix string

	ingress    time.Time
	decoded    time.Time
	enqueued   time.Time
	dequeued   time.Time
	solveStart time.Time
	solveEnd   time.Time
	deadline   time.Time

	batch       int32
	solveID     int64
	steps       *StepRecorder
	hasDeadline bool
	expired     bool
	finished    bool
	rec         Record
}

// maxIDLen bounds an honored incoming id: every flight record and fault
// snapshot keeps the id, so its size must not be the client's choice.
const maxIDLen = 128

// StartSpan begins a request span at the current instant. An incoming id
// (e.g. an X-Request-Id header) of 1–128 bytes of visible ASCII is
// honored verbatim so clients can correlate their own retries with
// flight-recorder dumps; any other id, the empty one included, is
// replaced by a fresh process-unique one.
func StartSpan(id string) *Span {
	if !validID(id) {
		id = newID()
	}
	return &Span{ID: id, ingress: time.Now()}
}

// validID reports whether id is 1–maxIDLen bytes in 0x21–0x7E.
func validID(id string) bool {
	if len(id) == 0 || len(id) > maxIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return false
		}
	}
	return true
}

// SetDeadline records the request's effective deadline so the finished
// record can report slack (deadline minus completion time).
//
//sptrsv:hotpath
func (sp *Span) SetDeadline(d time.Time) {
	sp.deadline = d
	sp.hasDeadline = true
}

// MarkDecoded marks the end of the request body's decode, the start of
// admission.
//
//sptrsv:hotpath
//sptrsv:wallclock
func (sp *Span) MarkDecoded() { sp.decoded = time.Now() }

// MarkEnqueued marks admission into the bounded queue.
//
//sptrsv:hotpath
//sptrsv:wallclock
func (sp *Span) MarkEnqueued() { sp.enqueued = time.Now() }

// MarkDequeued marks the batch worker taking the request out of the
// queue — the end of queue-wait, the start of the coalesce hold.
//
//sptrsv:hotpath
//sptrsv:wallclock
func (sp *Span) MarkDequeued() { sp.dequeued = time.Now() }

// MarkSolveStart marks the head of the batch solve the request rides in.
//
//sptrsv:hotpath
//sptrsv:wallclock
func (sp *Span) MarkSolveStart() { sp.solveStart = time.Now() }

// MarkSolveEnd marks the end of the solve attempts and records the last
// one: how many right-hand sides it carried, and the solve id its steps
// carry in steps, the solver's step recorder (0 and nil when step tracing
// is not armed; 0 when no solve ran).
//
//sptrsv:hotpath
//sptrsv:wallclock
func (sp *Span) MarkSolveEnd(steps *StepRecorder, solveID int64, batch int) {
	sp.solveEnd = time.Now()
	sp.steps, sp.solveID = steps, solveID
	sp.batch = int32(batch)
}

// MarkExpired tags the span as dropped at dequeue: its deadline passed
// while it sat in the queue, so no kernel ever ran for it. The finisher
// uses the tag to tell OutcomeExpired from an in-solve deadline.
//
//sptrsv:hotpath
func (sp *Span) MarkExpired() { sp.expired = true }

// Expired reports whether MarkExpired was called.
func (sp *Span) Expired() bool { return sp.expired }

// Finish closes the span with the given outcome and folds the marks into
// the immutable Record (retrievable afterwards via Record). Finishing is
// idempotent: the first call wins.
//
//sptrsv:hotpath
//sptrsv:wallclock
func (sp *Span) Finish(o Outcome) Record {
	if sp.finished {
		return sp.rec
	}
	now := time.Now()
	rec := Record{
		ID:      sp.ID,
		Matrix:  sp.Matrix,
		Ingress: sp.ingress,
		Total:   now.Sub(sp.ingress),
		Batch:   sp.batch,
		SolveID: sp.solveID,
		Steps:   sp.steps,
		Outcome: o,
	}
	admitted := sp.ingress
	if !sp.decoded.IsZero() {
		rec.Decode = sp.decoded.Sub(sp.ingress)
		admitted = sp.decoded
	}
	if !sp.enqueued.IsZero() {
		rec.Admit = sp.enqueued.Sub(admitted)
	}
	if !sp.dequeued.IsZero() {
		rec.QueueWait = sp.dequeued.Sub(sp.enqueued)
	}
	if !sp.solveStart.IsZero() {
		rec.Coalesce = sp.solveStart.Sub(sp.dequeued)
	}
	if !sp.solveEnd.IsZero() {
		rec.Solve = sp.solveEnd.Sub(sp.solveStart)
	}
	if sp.hasDeadline {
		rec.DeadlineSlack = sp.deadline.Sub(now)
		rec.HasDeadline = true
	}
	sp.rec = rec
	sp.finished = true
	return rec
}

// Record returns the folded record of a finished span (the zero Record
// before Finish).
func (sp *Span) Record() Record { return sp.rec }

// Record is one finished request in flight-recorder form: identity,
// phase durations, batch geometry, deadline slack, and outcome. Respond
// time (solve end to finish) is Total minus the recorded phases.
type Record struct {
	// Seq is the recorder-assigned monotonic sequence number (1-based);
	// 0 until the record has been appended to a FlightRecorder.
	Seq int64
	// ID is the request id; Matrix the target matrix.
	ID     string
	Matrix string
	// Ingress is the wall-clock instant the request entered the service.
	Ingress time.Time
	// Decode is ingress → decoded: reading and decoding the request
	// body (0 for a request that arrived through the Go API).
	Decode time.Duration
	// Admit is decoded (or ingress, without a decode) → enqueued:
	// validation and the queue send.
	Admit time.Duration
	// QueueWait is enqueued → dequeued by a batch worker.
	QueueWait time.Duration
	// Coalesce is dequeued → batch solve start (the window hold).
	Coalesce time.Duration
	// Solve is batch solve start → solve end (retries included).
	Solve time.Duration
	// Total is ingress → finish: the end-to-end service latency.
	Total time.Duration
	// Batch is how many right-hand sides shared the request's last solve
	// attempt: 1 once a failed batch has degraded to solo retries.
	Batch int32
	// SolveID names that attempt's steps in Steps, the solver's step
	// recorder (0 and nil when step tracing was not armed; 0 when no
	// solve ran).
	SolveID int64
	Steps   *StepRecorder
	// DeadlineSlack is deadline minus finish time — negative when the
	// deadline had already passed. Valid only when HasDeadline.
	DeadlineSlack time.Duration
	HasDeadline   bool
	// Outcome classifies the resolution.
	Outcome Outcome
}

// Respond is the trailing phase: finish time minus everything the
// recorded phases account for (result copy-out and bookkeeping).
func (r Record) Respond() time.Duration {
	d := r.Total - r.Decode - r.Admit - r.QueueWait - r.Coalesce - r.Solve
	if d < 0 {
		return 0
	}
	return d
}

// Snapshot is one black-box capture: the flight ring's most recent
// records plus whatever service state the caller passed, frozen at the
// moment a fault, stall, or overload burst was observed.
type Snapshot struct {
	// When is the capture instant; Reason what triggered it ("fault",
	// "stall", "overload-burst", "manual", ...).
	When   time.Time
	Reason string
	// RequestID is the id of the request whose failure triggered the
	// capture (empty for burst/manual captures).
	RequestID string
	// Detail is caller-provided service state, e.g. per-matrix queue
	// depths at capture time.
	Detail string
	// Records are the ring's newest records at capture time, oldest
	// first.
	Records []Record
	// Goroutines is a full goroutine dump (runtime.Stack with all=true).
	Goroutines []byte
}

// maxSnapshots bounds retained snapshots: a sustained failure storm
// keeps its most recent captures, not unbounded memory.
const maxSnapshots = 4

// snapshotRecords bounds how much of the ring one snapshot freezes.
const snapshotRecords = 64

// FlightRecorder is the always-on flight recorder: a fixed-size ring of
// the most recent request records plus a short ring of fault snapshots.
// All memory is allocated up front; Record never allocates and holds its
// mutex only for a struct copy, so it sits on the daemon's request path
// at effectively zero cost.
type FlightRecorder struct {
	ring[Record]
	snaps ring[Snapshot]
}

// NewFlightRecorder returns a flight recorder retaining the most recent
// capacity request records (non-positive selects 256).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = 256
	}
	return &FlightRecorder{
		ring:  ring[Record]{buf: make([]Record, capacity)},
		snaps: ring[Snapshot]{buf: make([]Snapshot, maxSnapshots)},
	}
}

// Record appends one finished request record and returns its assigned
// sequence number. Zero allocations, one short critical section.
//
//sptrsv:hotpath
func (r *FlightRecorder) Record(rec Record) int64 { return r.add(rec) }

// Records returns the retained records oldest-first.
func (r *FlightRecorder) Records() []Record { return r.newest(len(r.buf)) }

// newest copies up to n of the newest records oldest-first, each with its
// sequence number.
func (r *FlightRecorder) newest(n int) []Record {
	recs, seq := r.last(n)
	for i := range recs {
		recs[i].Seq = seq + int64(i)
	}
	return recs
}

// CaptureSnapshot freezes the newest ring records together with a full
// goroutine dump and the caller's detail string, and retains it in the
// snapshot ring (the last maxSnapshots captures are kept). It allocates
// freely — captures happen on fault paths, never on the solve path.
func (r *FlightRecorder) CaptureSnapshot(reason, requestID, detail string) Snapshot {
	recs := r.newest(snapshotRecords)
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	snap := Snapshot{
		When:       time.Now(),
		Reason:     reason,
		RequestID:  requestID,
		Detail:     detail,
		Records:    recs,
		Goroutines: buf,
	}
	r.snaps.add(snap)
	return snap
}

// Snapshots returns the retained snapshots oldest-first.
func (r *FlightRecorder) Snapshots() []Snapshot {
	snaps, _ := r.snaps.last(maxSnapshots)
	return snaps
}

// SnapshotTotal reports how many snapshots were ever captured.
func (r *FlightRecorder) SnapshotTotal() int64 { return r.snaps.Total() }
