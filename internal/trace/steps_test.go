package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/kernels"
)

// recordSolve records one synthetic two-step solve — a level-set triangle
// and a vector-CSR square update — starting at start.
func recordSolve(r *StepRecorder, start time.Time) int64 {
	sid := BeginSolve(r)
	RecordStep(r, sid, 0, StepMeta{Tri: true, Block: 0, Rows: 64, Cols: 64, NNZ: 200, Levels: 5,
		Kernel: uint8(kernels.TriLevelSet)}, start, 3*time.Microsecond)
	RecordStep(r, sid, 1, StepMeta{Block: 0, Rows: 64, Cols: 64, NNZ: 90,
		Kernel: uint8(kernels.SpMVVectorCSR)}, start.Add(3*time.Microsecond), time.Microsecond)
	return sid
}

// TestStepRecorderExport: records come back oldest-first in exported
// form, with kernel names resolved per kind and starts measured from the
// process-wide origin, and Summarize folds them per kind and kernel.
func TestStepRecorderExport(t *testing.T) {
	r := NewStepRecorder(16)
	t0 := origin.Add(time.Second)
	recordSolve(r, t0)
	recordSolve(r, t0.Add(time.Millisecond))

	steps := r.Steps()
	if len(steps) != 4 {
		t.Fatalf("%d steps, want 4", len(steps))
	}
	want := Step{Solve: 1, Step: 0, Kind: "tri", Block: 0, Kernel: "level-set", Rows: 64, Cols: 64,
		NNZ: 200, Levels: 5, Start: time.Second, Duration: 3 * time.Microsecond}
	if steps[0] != want {
		t.Fatalf("first step %+v, want %+v", steps[0], want)
	}
	if st := steps[3]; st.Solve != 2 || st.Kind != "spmv" || st.Kernel != "vector-csr" ||
		st.Start != time.Second+time.Millisecond+3*time.Microsecond {
		t.Fatalf("last step %+v", st)
	}

	sum := r.Summarize()
	if sum.Steps != 4 || sum.Solves != 2 || sum.TriCalls != 2 || sum.SpMVCalls != 2 ||
		sum.TriTime != 6*time.Microsecond || sum.SpMVTime != 2*time.Microsecond ||
		sum.KernelCalls["level-set"] != 2 || sum.KernelTime["vector-csr"] != 2*time.Microsecond {
		t.Fatalf("summary %+v", sum)
	}
}

// TestSummarizeEmpty: an empty recorder summarises to zeroes, quantiles
// included.
func TestSummarizeEmpty(t *testing.T) {
	sum := NewStepRecorder(16).Summarize()
	if sum.Steps != 0 || sum.StepP50 != 0 || sum.StepP99 != 0 {
		t.Fatalf("empty summary = %+v", sum)
	}
}

// TestChromeTraceValid: the Chrome export is valid JSON with one complete
// event per retained step, and the text table one line per step plus the
// header and, once the ring wrapped, the drop note.
func TestChromeTraceValid(t *testing.T) {
	r := NewStepRecorder(6)
	for i := 0; i < 4; i++ {
		recordSolve(r, time.Now())
	}

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int64   `json:"tid"`
			Args struct {
				Step   int `json:"step"`
				Rows   int `json:"rows"`
				NNZ    int `json:"nnz"`
				Levels int `json:"levels"`
			} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) != r.Len() || r.Len() != 6 {
		t.Fatalf("%d events, want the %d retained steps", len(doc.TraceEvents), r.Len())
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 || ev.TID < 2 || ev.Cat == "" || ev.Name == "" || ev.Dur <= 0 || ev.Args.Rows != 64 {
			t.Fatalf("malformed event: %+v", ev)
		}
	}
	if ev := doc.TraceEvents[0]; ev.Cat != "tri" || ev.Name != "level-set" || ev.Dur != 3 || ev.Args.Levels != 5 || ev.Args.NNZ != 200 {
		t.Fatalf("triangle event %+v", ev)
	}

	var table strings.Builder
	if err := r.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	out := table.String()
	if lines := strings.Count(out, "\n"); lines != r.Len()+2 || !strings.Contains(out, "(2 older steps dropped") {
		t.Fatalf("table has %d lines, want %d steps + header + drop note:\n%s", lines, r.Len(), out)
	}
}
