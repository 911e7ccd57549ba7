package main

import (
	"encoding/json"
	"net/http"
	"strings"

	sptrsv "github.com/sss-lab/blocksptrsv"
	"github.com/sss-lab/blocksptrsv/internal/daemon"
)

// The references are the benchmark's yardstick. On a shared 2-vCPU cloud
// VM, where other tenants use the same cores and memory, a fixed
// single-threaded loop read up to 11% slower in some 2-second windows
// than in others, and the same 20-second daemon run read up to twice as
// slow as another. Each end-to-end time is therefore reported relative
// to a reference doing the same job, measured interleaved with it, which
// slows down with it. The references live in this directory, so no
// change to the library moves them.

// refSolve is the textbook serial forward substitution of L·x = b. It is
// the single-threaded baseline every library call is measured against.
// Rows of L are sorted and its diagonal is full, so each row ends with its
// diagonal entry.
func refSolve(l *sptrsv.Matrix[float64], b, x []float64) {
	for i := 0; i < l.Rows; i++ {
		last := l.RowPtr[i+1] - 1
		s := b[i]
		for p := l.RowPtr[i]; p < last; p++ {
			s -= l.Val[p] * x[l.ColIdx[p]]
		}
		x[i] = s / l.Val[last]
	}
}

// refService is the simplest service that answers the daemon's requests,
// by matrix name: it decodes the request, solves it with refSolve on the
// caller's goroutine and encodes the answer. It is what the daemon's
// request latency and throughput are measured against.
type refService map[string]*sptrsv.Matrix[float64]

func newRefService(mats []input) refService {
	r := refService{}
	for _, in := range mats {
		r[in.name] = in.l
	}
	return r
}

// ServeHTTP answers POST /solve/{matrix} like the daemon's handler.
func (r refService) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	l := r[strings.TrimPrefix(req.URL.Path, "/solve/")]
	if l == nil {
		http.Error(w, "unknown matrix", http.StatusNotFound)
		return
	}
	var sr daemon.SolveRequest
	if err := json.NewDecoder(req.Body).Decode(&sr); err != nil || len(sr.B) != l.Rows {
		http.Error(w, "bad request", http.StatusBadRequest)
		return
	}
	x := make([]float64, l.Rows)
	refSolve(l, sr.B, x)
	w.Header().Set("Content-Type", "application/json")
	// An encode failure means the in-process recorder failed; the
	// benchmark sees it as a short body.
	_ = json.NewEncoder(w).Encode(daemon.SolveResponse{X: x})
}
