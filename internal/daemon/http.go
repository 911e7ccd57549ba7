package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/trace"
)

// The HTTP surface: a thin JSON façade over Solve, whose request and
// answer go through the codec in wire.go. Every daemon error
// maps to a distinct status and machine-readable kind, so clients can
// react mechanically — 429 + Retry-After means back off, 503 means the
// process is going away, 504 means the deadline did its job.

// maxSolveBody bounds a solve request body for a matrix of the given
// rows: the larger of 16 MiB and bodyBytesPerRow a row. encoding/json
// writes a float64 in at most 25 bytes (-0.0000012345678901234567), so
// 32 holds each value with its comma and some whitespace, and any
// right-hand side json.Marshal writes fits (a 1M-row one of normally
// distributed values takes 19.6 MB). An unknown matrix (rows 0) gets
// 16 MiB. The admission queue bounds memory per request; this bounds it
// per connection.
func maxSolveBody(rows int) int64 {
	return max(16<<20, bodyBytesPerRow*int64(rows))
}

// bodyBytesPerRow is the body a solve request may take per matrix row.
const bodyBytesPerRow = 32

// SolveRequest is the body of POST /solve/{matrix}.
type SolveRequest struct {
	// B is the right-hand side; its length must equal the matrix's rows.
	B []float64 `json:"b"`
	// TimeoutMS, when positive, overrides the daemon's default deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// maxTimeoutMS is the largest timeout_ms a time.Duration holds.
const maxTimeoutMS = int64(math.MaxInt64 / time.Millisecond)

// SolveResponse is the success body: the solution vector.
type SolveResponse struct {
	X []float64 `json:"x"`
}

// ErrorResponse is every non-2xx body. Kind is stable and mechanical:
// overload, draining, unknown_matrix, dimension, deadline, canceled,
// stall, residual, fault, bad_request, internal.
type ErrorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
	// RequestID correlates the failure with /debug/requests and
	// /debug/flight (empty only when the failure precedes span creation).
	RequestID string `json:"request_id,omitempty"`
	// QueueDepth and QueueCapacity are set on overload responses: the
	// admission queue's fill and bound at the moment the request was
	// shed.
	QueueDepth    int `json:"queue_depth,omitempty"`
	QueueCapacity int `json:"queue_capacity,omitempty"`
}

// Handler returns the daemon's HTTP API:
//
//	POST /solve/{matrix}   solve one RHS (JSON in/out, see SolveRequest)
//	GET  /matrices         per-matrix service stats (JSON, see MatrixStats)
//	GET  /healthz          service health; ?verbose=1 adds per-matrix SLO detail
//	GET  /debug/requests   recent request spans (?format=table|chrome; chrome
//	                       nests each request's steps from its solver's recorder)
//	GET  /debug/flight     flight-recorder dump (?format=text|json)
//
// Any other path falls through to Config.Obs when configured (the
// observability mux: /metrics, /debug/pprof, ...) and 404s otherwise.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve/{matrix}", d.handleSolve)
	mux.HandleFunc("GET /matrices", d.handleMatrices)
	mux.HandleFunc("GET /healthz", d.handleHealth)
	mux.HandleFunc("GET /debug/requests", d.handleRequests)
	mux.HandleFunc("GET /debug/flight", d.handleFlight)
	if d.cfg.Obs != nil {
		mux.Handle("/", d.cfg.Obs)
	}
	return mux
}

// IndexLines enumerates every endpoint Handler serves, formatted for
// ObsOptions.Index — hosts mounting an ObsHandler behind the daemon pass
// this instead of hand-maintaining the list, so the index page can never
// drift from the actual service surface.
func IndexLines() []string {
	return []string{
		"POST /solve/{matrix}  solve one right-hand side (JSON)",
		"/matrices       per-matrix service stats (JSON)",
		"/healthz        service health (?verbose=1 for per-matrix SLO detail)",
		"/debug/requests recent request spans (?format=table|chrome)",
		"/debug/flight   flight recorder dump (?format=text|json)",
	}
}

func (d *Daemon) handleSolve(w http.ResponseWriter, r *http.Request) {
	// The span starts before the body is read, so its decode phase
	// covers request parsing; an incoming X-Request-Id is honored so
	// clients can correlate retries across services.
	sp := trace.StartSpan(r.Header.Get("X-Request-Id"))
	w.Header().Set("X-Request-Id", sp.ID)
	matrix := r.PathValue("matrix")
	req, err := readSolve(w, r, d.pipe(matrix))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("decoding solve request: %w", err), sp.ID)
		return
	}
	sp.MarkDecoded()
	if int64(req.TimeoutMS) > maxTimeoutMS {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("timeout_ms %d exceeds %d", req.TimeoutMS, maxTimeoutMS), sp.ID)
		return
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	x, err := d.SolveSpan(ctx, matrix, req.B, sp)
	setPhaseHeaders(w.Header(), sp.Record())
	if err != nil {
		writeSolveError(w, err, sp.ID)
		return
	}
	writeSolveResponse(w, x, sp.ID)
}

// readSolve reads and decodes a solve request's body, bounded by the
// rows of p, the matrix's pipeline (nil for an unknown matrix, which
// admission refuses). While it runs, p counts the request as being read,
// so its workers know a second request is on the way (pipeline.gather).
func readSolve(w http.ResponseWriter, r *http.Request, p *pipeline) (SolveRequest, error) {
	rows := 0
	if p != nil {
		rows = p.n
		p.reading.Add(1)
		defer p.reading.Add(-1)
	}
	body := http.MaxBytesReader(w, r.Body, maxSolveBody(rows))
	data, readErr := readSolveBody(body, r.ContentLength, rows)
	return decodeSolveRequest(data, readErr, rows)
}

// setPhaseHeaders exposes the finished span's phase attribution as
// response headers, so load generators can collect per-phase latency
// without a second round trip to /debug/requests.
func setPhaseHeaders(h http.Header, rec trace.Record) {
	h.Set("X-Phase-Queue-Wait-Ns", strconv.FormatInt(rec.QueueWait.Nanoseconds(), 10))
	h.Set("X-Phase-Coalesce-Ns", strconv.FormatInt(rec.Coalesce.Nanoseconds(), 10))
	h.Set("X-Phase-Solve-Ns", strconv.FormatInt(rec.Solve.Nanoseconds(), 10))
	h.Set("X-Phase-Total-Ns", strconv.FormatInt(rec.Total.Nanoseconds(), 10))
	h.Set("X-Batch", strconv.FormatInt(int64(rec.Batch), 10))
}

func (d *Daemon) handleMatrices(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.Stats())
}

// HealthResponse is the /healthz?verbose=1 body: the folded service
// state plus each matrix's SLO standing and queue fill.
type HealthResponse struct {
	State    string      `json:"state"`
	Matrices []SLOStatus `json:"matrices"`
}

func (d *Daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	state := d.Health()
	if r.URL.Query().Get("verbose") != "" {
		writeJSON(w, healthStatusCode(state), HealthResponse{State: state, Matrices: d.SLOStatuses()})
		return
	}
	if state == "draining" {
		writeError(w, http.StatusServiceUnavailable, "draining", ErrDraining, "")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(healthStatusCode(state))
	fmt.Fprintln(w, state)
}

// healthStatusCode degrades before the queue hard-fails: "degraded" is
// still 200 (serve, but the SLO budget is burning), "critical" is 503 so
// load balancers rotate traffic away while requests still succeed.
func healthStatusCode(state string) int {
	switch state {
	case "draining", "critical":
		return http.StatusServiceUnavailable
	default:
		return http.StatusOK
	}
}

func (d *Daemon) handleRequests(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("format") {
	case "", "table":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := d.rec.WriteTable(w); err != nil {
			http.Error(w, "requests write failed: "+err.Error(), http.StatusInternalServerError)
		}
	case "chrome", "json":
		w.Header().Set("Content-Type", "application/json")
		if err := d.rec.WriteChromeTrace(w); err != nil {
			http.Error(w, "requests write failed: "+err.Error(), http.StatusInternalServerError)
		}
	default:
		http.Error(w, "unknown format (want table or chrome)", http.StatusBadRequest)
	}
}

func (d *Daemon) handleFlight(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("format") {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := d.rec.WriteFlight(w); err != nil {
			http.Error(w, "flight write failed: "+err.Error(), http.StatusInternalServerError)
		}
	case "json":
		w.Header().Set("Content-Type", "application/json")
		if err := d.rec.WriteFlightJSON(w); err != nil {
			http.Error(w, "flight write failed: "+err.Error(), http.StatusInternalServerError)
		}
	default:
		http.Error(w, "unknown format (want text or json)", http.StatusBadRequest)
	}
}

// writeSolveError is the error taxonomy in one place: typed daemon and
// solver errors become distinct statuses and kinds, and every body
// carries the request id for flight-recorder correlation.
func writeSolveError(w http.ResponseWriter, err error, requestID string) {
	var (
		overload *OverloadError
		dim      *DimensionError
		fault    *SolveFault
		stall    *block.StallError
		residual *block.ResidualError
	)
	switch {
	case errors.As(err, &overload):
		// Retry-After is whole seconds by spec; round up so a hint of
		// 2ms does not become "retry immediately".
		secs := int64((overload.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error: err.Error(), Kind: "overload", RequestID: requestID,
			QueueDepth: overload.Queued, QueueCapacity: overload.Depth,
		})
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "draining", err, requestID)
	case errors.Is(err, ErrUnknownMatrix):
		writeError(w, http.StatusNotFound, "unknown_matrix", err, requestID)
	case errors.As(err, &dim):
		writeError(w, http.StatusBadRequest, "dimension", err, requestID)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline", err, requestID)
	case errors.Is(err, context.Canceled):
		// The client usually went away; answer whoever is still there.
		writeError(w, http.StatusRequestTimeout, "canceled", err, requestID)
	case errors.As(err, &stall):
		writeError(w, http.StatusServiceUnavailable, "stall", err, requestID)
	case errors.As(err, &residual):
		writeError(w, http.StatusInternalServerError, "residual", err, requestID)
	case errors.As(err, &fault):
		writeError(w, http.StatusInternalServerError, "fault", err, requestID)
	default:
		writeError(w, http.StatusInternalServerError, "internal", err, requestID)
	}
}

func writeError(w http.ResponseWriter, status int, kind string, err error, requestID string) {
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Kind: kind, RequestID: requestID})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// An encode failure here means the client hung up mid-body; there is
	// no one left to tell.
	_ = json.NewEncoder(w).Encode(v)
}
