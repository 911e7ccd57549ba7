// Package trace is the solver's one event model, from a daemon request
// down to the kernel steps of its solve. A StepRecorder, attached to a
// block solver, records every plan step of every solve: the paper's
// Figure 4 breakdown, made per step. The daemon's always-on
// FlightRecorder records every finished request with its phases and the
// solve id that names its steps. Both keep their events in the same
// bounded ring and export through the same Chrome trace_event writer on
// one process-wide time origin, so FlightRecorder.WriteChromeTrace can
// nest a request's kernel steps inside its solve phase.
package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// origin is the process-wide time origin of every export: step starts
// and request ingress instants are both reported relative to it.
var origin = time.Now()

// ring is the bounded store behind both recorders and the flight
// recorder's fault snapshots. It keeps the last len(buf) values added,
// overwriting the oldest, and counts every value ever added; all memory
// is allocated up front, and adding is one struct copy under a short
// mutex.
type ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	total int64
}

// add appends v and returns its 1-based sequence number.
//
//sptrsv:hotpath
func (r *ring[T]) add(v T) int64 {
	r.mu.Lock()
	r.buf[r.total%int64(len(r.buf))] = v
	r.total++
	seq := r.total
	r.mu.Unlock()
	return seq
}

// Total reports how many values were ever added, including those the
// bounded ring has overwritten.
func (r *ring[T]) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Len reports how many values the ring currently holds.
func (r *ring[T]) Len() int { return int(min(r.Total(), int64(len(r.buf)))) }

// Dropped reports how many values the bounded ring has overwritten.
func (r *ring[T]) Dropped() int64 { return max(r.Total()-int64(len(r.buf)), 0) }

// Reset forgets every value; the capacity is kept.
func (r *ring[T]) Reset() {
	r.mu.Lock()
	r.total = 0
	r.mu.Unlock()
}

// last copies up to n of the newest values oldest-first, and returns the
// sequence number of the first of them.
func (r *ring[T]) last(n int) ([]T, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := int64(len(r.buf))
	held := min(r.total, size, int64(n))
	out := make([]T, 0, held)
	for i := r.total - held; i < r.total; i++ {
		out = append(out, r.buf[i%size])
	}
	return out, r.total - held + 1
}

// event is one complete ("X") Chrome trace_event. TS and Dur are in
// microseconds; TS counts from origin.
type event struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  int64   `json:"tid"`
	Args any     `json:"args"`
}

func newEvent(name, cat string, tid int64, start, dur time.Duration, args any) event {
	return event{
		Name: name, Cat: cat, Ph: "X", PID: 1, TID: tid, Args: args,
		TS: float64(start.Nanoseconds()) / 1e3, Dur: float64(dur.Nanoseconds()) / 1e3,
	}
}

// writeChrome writes events as Chrome trace_event JSON in its object form,
// {"traceEvents":[...]}, loadable in chrome://tracing and Perfetto. Every
// event goes through encoding/json, so client-chosen text, such as a
// matrix name taken from a URL, stays valid JSON: invalid UTF-8 becomes
// U+FFFD.
func writeChrome(w io.Writer, events []event) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(`{"traceEvents":[`)
	for i, ev := range events {
		if i > 0 {
			bw.WriteByte(',')
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		bw.Write(b)
	}
	// A failed write sticks in bw and surfaces here.
	bw.WriteString("],\"displayTimeUnit\":\"ns\"}\n")
	return bw.Flush()
}
