package block

import (
	"bytes"
	"errors"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
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
	l := gen.Layered(500, 10, 4, 0, 501)
	s, err := Preprocess(l, Options{Pool: pool, Kind: Recursive, MinBlockRows: 100, Reorder: true, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)/2] },
		"bad magic":    func(b []byte) []byte { c := clone(b); c[0] = 'X'; return c },
		"bad version":  func(b []byte) []byte { c := clone(b); c[7] = 99; return c },
		"empty":        func(b []byte) []byte { return nil },
		"flipped byte": func(b []byte) []byte { c := clone(b); c[40] ^= 0xFF; return c },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadSolver[float64](bytes.NewReader(corrupt(good)), pool); err == nil {
				t.Fatal("corrupted stream accepted")
			}
		})
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
