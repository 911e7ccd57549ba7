package block

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

func TestSerializeRoundTripAllConfigurations(t *testing.T) {
	pool := exec.NewPool(3)
	for name, l := range testMatrices() {
		// The paper's tree stores the parallel kernels' state; the default
		// floor stores serial leaves.
		for _, cfg := range []struct {
			cal bool
			th  adapt.Thresholds
		}{{false, paperThresholds()}, {false, adapt.DefaultThresholds()}, {true, adapt.DefaultThresholds()}} {
			s, err := Preprocess(l, Options{
				Pool: pool, Kind: Recursive, MinBlockRows: 150,
				Reorder: true, Adaptive: true, Thresholds: cfg.th, Calibrate: cfg.cal,
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			n, err := s.WriteTo(&buf)
			if err != nil {
				t.Fatalf("%s: write: %v", name, err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("%s: reported %d bytes, wrote %d", name, n, buf.Len())
			}
			back, err := ReadSolver[float64](&buf, pool)
			if err != nil {
				t.Fatalf("%s: read: %v", name, err)
			}
			if back.Rows() != s.Rows() || back.Name() != s.Name() {
				t.Fatalf("%s: metadata changed: %s/%d vs %s/%d", name, back.Name(), back.Rows(), s.Name(), s.Rows())
			}
			if back.Traffic() != s.Traffic() || back.SquareNNZ() != s.SquareNNZ() {
				t.Fatalf("%s: traffic changed", name)
			}
			// The loaded solver replays the same block structure, so
			// solutions agree to accumulation-order noise.
			b := gen.RandVec(l.Rows, 77)
			x1 := make([]float64, l.Rows)
			x2 := make([]float64, l.Rows)
			s.Solve(b, x1)
			back.Solve(b, x2)
			for i := range x1 {
				if !closeEnough(x1[i], x2[i]) {
					t.Fatalf("%s cal=%v floor=%d: loaded solver differs at %d: %g vs %g", name, cfg.cal, cfg.th.TriParallelMinWork, i, x1[i], x2[i])
				}
			}
			// Batch path survives the round trip too; compare against the
			// original solver's batch path (bit-identical replay), not the
			// single-vector path whose accumulation order may differ.
			const k = 3
			packed := InterleaveRHS([][]float64{b, b, b})
			out1 := make([]float64, l.Rows*k)
			out2 := make([]float64, l.Rows*k)
			s.SolveBatch(packed, out1, k)
			back.SolveBatch(packed, out2, k)
			for i := range out1 {
				if !closeEnough(out1[i], out2[i]) {
					t.Fatalf("%s cal=%v floor=%d: batch after load differs at %d", name, cfg.cal, cfg.th.TriParallelMinWork, i)
				}
			}
		}
	}
}

func TestSerializeFloat32(t *testing.T) {
	// One worker fixes the order of the kernels' atomic scatter adds, so
	// original and reloaded solver round identically even in float32.
	pool := exec.NewPool(1)
	l64 := gen.Layered(800, 20, 4, 0.1, 500)
	l := sparse.ConvertValues[float32](l64)
	s, err := Preprocess(l, Options{Pool: pool, Kind: Recursive, MinBlockRows: 100, Reorder: true, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Width mismatch must be detected.
	if _, err := ReadSolver[float64](bytes.NewReader(data), pool); !errors.Is(err, ErrSerialize) {
		t.Fatalf("width mismatch accepted: %v", err)
	}
	back, err := ReadSolver[float32](bytes.NewReader(data), pool)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float32, l.Rows)
	for i := range b {
		b[i] = float32(i%5) - 2
	}
	x1 := make([]float32, l.Rows)
	x2 := make([]float32, l.Rows)
	s.Solve(b, x1)
	back.Solve(b, x2)
	for i := range x1 {
		if !closeEnough(float64(x1[i]), float64(x2[i])) {
			t.Fatalf("float32 loaded solver differs at %d", i)
		}
	}
}

func TestSerializeRejectsCorruption(t *testing.T) {
	pool := exec.NewPool(2)
	// Split in two by the size rule and forced to the serial kernel: two
	// scatter leaves with strict entries and one CSR square between them.
	// (The default tree runs such leaves as gathers, whose stream
	// TestSerializeRejectsCorruptGatherLeaf corrupts.)
	l := gen.Layered(4000, 4, 6, 0, 501)
	// Each case corrupts either the bytes of a valid stream or, before
	// WriteTo, the solver itself, so the stream's checksum still holds
	// and only validation can catch the contradiction.
	cases := map[string]struct {
		mutate  func(t *testing.T, s *Solver[float64])
		corrupt func([]byte) []byte
	}{
		"truncated":    {corrupt: func(b []byte) []byte { return b[:len(b)/2] }},
		"bad magic":    {corrupt: func(b []byte) []byte { c := clone(b); c[0] = 'X'; return c }},
		"bad version":  {corrupt: func(b []byte) []byte { c := clone(b); c[7] = 99; return c }},
		"version 1":    {corrupt: func(b []byte) []byte { c := clone(b); c[7] = 1; return c }},
		"version 2":    {corrupt: func(b []byte) []byte { c := clone(b); c[7] = 2; return c }},
		"empty":        {corrupt: func(b []byte) []byte { return nil }},
		"flipped byte": {corrupt: func(b []byte) []byte { c := clone(b); c[40] ^= 0xFF; return c }},
		"dcsr kernel without dcsr": {mutate: func(t *testing.T, s *Solver[float64]) {
			sb := csrSquare(t, s)
			sb.kernel = kernels.SpMVScalarDCSR
		}},
		"square storage outside window": {mutate: func(t *testing.T, s *Solver[float64]) {
			sb := csrSquare(t, s)
			m := sb.csr
			sb.csr = &sparse.CSR[float64]{Rows: m.Rows + 1, Cols: m.Cols + 1,
				RowPtr: append(slices.Clone(m.RowPtr), m.NNZ()), ColIdx: m.ColIdx, Val: m.Val}
		}},
		"square window left of the matrix": {mutate: func(t *testing.T, s *Solver[float64]) {
			sb := csrSquare(t, s)
			sb.spec.colLo = -1
			sb.csr.Cols = sb.spec.colHi + 1
		}},
		"triangle entry on its diagonal": {mutate: func(t *testing.T, s *Solver[float64]) {
			c := s.tris[0].strictCSC
			j := 0
			for c.ColPtr[j] == c.ColPtr[j+1] {
				j++
			}
			c.RowIdx[c.ColPtr[j]] = j
		}},
		"cusparse schedule short of the block": {mutate: func(t *testing.T, s *Solver[float64]) {
			tb := &s.tris[0]
			tb.kernel = kernels.TriCuSparseLike
			tb.strictCSR = tb.strictCSC.ToCSR()
			chunkPtr, serial, items := kernels.NewMergedSchedule(tb.info, 0, 2).Data()
			tb.sched = kernels.NewMergedScheduleFromData(chunkPtr, serial, items[:len(items)-1])
		}},
		"level item out of range": {mutate: func(t *testing.T, s *Solver[float64]) {
			tb := &s.tris[0]
			tb.kernel = kernels.TriLevelSet
			tb.info.LevelItem[0] = 1 << 20
		}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := Preprocess(l, Options{Pool: pool, Kind: Recursive, MinBlockRows: 2000, Reorder: true, ForceTri: kernels.TriSerial})
			if err != nil {
				t.Fatal(err)
			}
			if tc.mutate != nil {
				tc.mutate(t, s)
			}
			var buf bytes.Buffer
			if _, err := s.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			if tc.corrupt != nil {
				data = tc.corrupt(data)
			}
			if _, err := ReadSolver[float64](bytes.NewReader(data), pool); !errors.Is(err, ErrSerialize) {
				t.Fatalf("corrupted stream: got %v, want ErrSerialize", err)
			}
		})
	}
}

// csrSquare returns the solver's first square block stored as CSR.
func csrSquare(t *testing.T, s *Solver[float64]) *sqBlock[float64] {
	t.Helper()
	for i := range s.sqs {
		if s.sqs[i].csr != nil {
			return &s.sqs[i]
		}
	}
	t.Fatal("no CSR square block")
	return nil
}

// TestSerializeRebuildsSyncFreeInDegrees: the sync-free in-degrees are
// not trusted from the stream. A solver whose stored count for its last
// row was one too high reloads with the CSC's row counts and solves
// within a deadline instead of spinning on a dependency that never comes.
func TestSerializeRebuildsSyncFreeInDegrees(t *testing.T) {
	pool := exec.NewPool(2)
	n := 500
	l := gen.Layered(n, 20, 3, 0, 502)
	s, err := Preprocess(l, Options{Pool: pool, Kind: Recursive, MinBlockRows: n,
		Adaptive: false, ForceTri: kernels.TriSyncFree})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.tris) != 1 || s.tris[0].kernel != kernels.TriSyncFree {
		t.Fatalf("expected a single sync-free triangle, got %d tris", len(s.tris))
	}
	s.tris[0].state.BaseCounts()[n-1]++
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSolver[float64](&buf, pool)
	if err != nil {
		t.Fatal(err)
	}
	tb := &back.tris[0]
	want := make([]int32, n)
	for _, r := range tb.strictCSC.RowIdx {
		want[r]++
	}
	if got := tb.state.BaseCounts(); !slices.Equal(got, want) {
		t.Errorf("reloaded in-degrees differ from the CSC row counts")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	b := gen.RandVec(n, 503)
	x := make([]float64, n)
	if err := back.SolveContext(ctx, b, x); err != nil {
		t.Fatalf("reloaded solver: %v", err)
	}
	ref := make([]float64, n)
	kernels.SerialSolveCSR(l, b, ref, nil)
	for i := range x {
		if !closeEnough(x[i], ref[i]) {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], ref[i])
		}
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// closeEnough tolerates the low-bit nondeterminism of concurrent atomic
// accumulation (addition order varies between runs on parallel machines).
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := 1.0
	if ab := abs(a); ab > m {
		m = ab
	}
	return d <= 1e-10*m
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
