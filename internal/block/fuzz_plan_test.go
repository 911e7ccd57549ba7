package block

import (
	"bytes"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// FuzzPlanRoundTrip is the solver stream's contract under fuzz: for
// arbitrary generated systems, every partition strategy and both element
// widths, serialize → deserialize → re-serialize must be byte-identical
// (`sptrsv -load-analysis a -save-analysis b` writes a loaded solver back
// out, and b must be a byte for byte), and the deserialized solver must
// solve equivalently to the one that was analyzed.
func FuzzPlanRoundTrip(f *testing.F) {
	f.Add(uint16(200), uint8(4), uint8(30), int64(1))
	f.Add(uint16(700), uint8(12), uint8(5), int64(99))
	f.Add(uint16(50), uint8(1), uint8(0), int64(7))
	f.Add(uint16(1000), uint8(20), uint8(80), int64(-3))

	pool := exec.NewPool(2)
	f.Fuzz(func(t *testing.T, n uint16, bw uint8, densPct uint8, seed int64) {
		rows := 50 + int(n)%1000
		band := 1 + int(bw)%20
		dens := float64(densPct%101) / 100
		l64 := gen.Banded(rows, band, dens, seed)
		l32 := sparse.ConvertValues[float32](l64)
		for _, kind := range []Kind{Recursive, ColumnBlock, RowBlock} {
			// The paper's tree stores the parallel kernels' state; the
			// default floor stores serial leaves.
			for _, th := range []adapt.Thresholds{paperThresholds(), adapt.DefaultThresholds()} {
				checkPlanRoundTrip(t, pool, l64, kind, th)
				checkPlanRoundTrip(t, pool, l32, kind, th)
			}
		}
	})
}

func checkPlanRoundTrip[T sparse.Float](t *testing.T, pool exec.Launcher, l *sparse.CSR[T], kind Kind, th adapt.Thresholds) {
	t.Helper()
	s, err := Preprocess(l, Options{
		Pool: pool, Kind: kind, NSeg: 4, MinBlockRows: 64,
		Reorder: true, Thresholds: th,
	})
	if err != nil {
		t.Fatalf("kind %v floor=%d: preprocess: %v", kind, th.TriParallelMinWork, err)
	}
	var first bytes.Buffer
	if _, err := s.WriteTo(&first); err != nil {
		t.Fatalf("kind %v floor=%d: serialize: %v", kind, th.TriParallelMinWork, err)
	}
	back, err := ReadSolver[T](bytes.NewReader(first.Bytes()), pool)
	if err != nil {
		t.Fatalf("kind %v floor=%d: deserialize: %v", kind, th.TriParallelMinWork, err)
	}
	var second bytes.Buffer
	if _, err := back.WriteTo(&second); err != nil {
		t.Fatalf("kind %v floor=%d: re-serialize: %v", kind, th.TriParallelMinWork, err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("kind %v floor=%d: re-serialization drifted: %d bytes vs %d", kind, th.TriParallelMinWork, first.Len(), second.Len())
	}
	b64 := gen.RandVec(l.Rows, 4242)
	b := make([]T, l.Rows)
	for i, v := range b64 {
		b[i] = T(v)
	}
	x1 := make([]T, l.Rows)
	x2 := make([]T, l.Rows)
	s.Solve(b, x1)
	back.Solve(b, x2)
	// Accumulation-order noise scales with the element width: float32
	// carries ~7 significant digits, so the float64 tolerance would flag
	// legitimate reordering as drift.
	tol := 1e-10
	if _, is32 := any(b[0]).(float32); is32 {
		tol = 1e-4
	}
	for i := range x1 {
		a, c := float64(x1[i]), float64(x2[i])
		m := 1.0
		if ab := abs(a); ab > m {
			m = ab
		}
		if abs(a-c) > tol*m {
			t.Fatalf("kind %v floor=%d: loaded solver differs at row %d: %g vs %g", kind, th.TriParallelMinWork, i, a, c)
		}
	}
}
