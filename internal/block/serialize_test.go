package block

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
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
	// The header is the magic and eight u64 fields (version, element
	// width, n, kind, reorder, the two traffic counts and the square
	// nnz); the permutation's length prefix follows it.
	permLen := len(serialMagic) + 8*8
	// A case marked leaf corrupts the shipped plan of a 5-point grid
	// instead: one level-ordered whole gather leaf.
	grid := gen.GridLaplacian5(40, 40, 506)
	// Each case corrupts either the bytes of a valid stream or, before
	// WriteTo, the solver itself, so the stream's checksum still holds
	// and only validation can catch the contradiction.
	// A case that names a want also checks the error's text, so it
	// proves the load stopped at the check it was written for.
	cases := map[string]struct {
		mutate  func(t *testing.T, s *Solver[float64])
		corrupt func([]byte) []byte
		want    string
		leaf    bool
	}{
		"truncated":    {corrupt: func(b []byte) []byte { return b[:len(b)/2] }},
		"bad magic":    {corrupt: func(b []byte) []byte { c := clone(b); c[0] = 'X'; return c }},
		"bad version":  {corrupt: func(b []byte) []byte { c := clone(b); c[7] = 99; return c }},
		"version 1":    {corrupt: func(b []byte) []byte { c := clone(b); c[7] = 1; return c }},
		"version 2":    {corrupt: func(b []byte) []byte { c := clone(b); c[7] = 2; return c }},
		"version 3":    {want: "unsupported version 3", corrupt: func(b []byte) []byte { c := clone(b); c[7] = 3; return c }},
		"empty":        {corrupt: func(b []byte) []byte { return nil }},
		"flipped byte": {corrupt: func(b []byte) []byte { c := clone(b); c[40] ^= 0xFF; return c }},
		"absurd length field": {want: "length 1099511627776 out of range", corrupt: func(b []byte) []byte {
			c := clone(b)
			binary.LittleEndian.PutUint64(c[permLen:], 1<<40)
			return c
		}},
		"negative length field": {want: "length -1 out of range", corrupt: func(b []byte) []byte {
			c := clone(b)
			binary.LittleEndian.PutUint64(c[permLen:], ^uint64(0))
			return c
		}},
		"truncated before the checksum": {want: "missing checksum", corrupt: func(b []byte) []byte { return b[:len(b)-8] }},
		"truncated inside the checksum": {want: "missing checksum", corrupt: func(b []byte) []byte { return b[:len(b)-3] }},
		"zeroed checksum": {want: "checksum mismatch", corrupt: func(b []byte) []byte {
			c := clone(b)
			clear(c[len(c)-8:])
			return c
		}},
		"negative size": {want: "negative size", mutate: func(t *testing.T, s *Solver[float64]) { s.n = -1 }},
		"permutation with a repeated row": {want: "not a permutation", mutate: func(t *testing.T, s *Solver[float64]) {
			s.perm = make([]int, s.n) // every position names row 0
		}},
		"permuted plan without triangles": {leaf: true, want: "plan covers diagonal to 0", mutate: func(t *testing.T, s *Solver[float64]) {
			s.tris, s.steps = nil, nil
		}},
		"tri step out of range": {want: "tri step out of range", mutate: func(t *testing.T, s *Solver[float64]) {
			stepOf(t, s, triSeg).idx = len(s.tris)
		}},
		"square step out of range": {want: "square step out of range", mutate: func(t *testing.T, s *Solver[float64]) {
			stepOf(t, s, sqSeg).idx = -1
		}},
		"unknown step kind": {want: "unknown step kind", mutate: func(t *testing.T, s *Solver[float64]) { s.steps[0].kind = 99 }},
		"triangle CSC with broken column pointers": {want: "tri block 0: " + sparse.ErrShape.Error(), mutate: func(t *testing.T, s *Solver[float64]) {
			c := s.tris[0].strictCSC
			c.ColPtr[c.Cols]++
		}},
		"triangle CSC outside window": {want: "tri block 0: CSC is", mutate: func(t *testing.T, s *Solver[float64]) {
			c := s.tris[0].strictCSC
			c.Rows, c.Cols = c.Rows+1, c.Cols+1
			c.ColPtr = append(c.ColPtr, c.NNZ())
		}},
		"diagonal short of the window": {want: "tri block 0: diagonal has", mutate: func(t *testing.T, s *Solver[float64]) {
			tb := &s.tris[0]
			tb.diag = tb.diag[:len(tb.diag)-1]
		}},
		"no level pointers": {want: "tri block 0: level sets: pointers do not run", mutate: func(t *testing.T, s *Solver[float64]) {
			s.tris[0].info.LevelPtr = nil
		}},
		"level pointers fall": {want: "tri block 0: level sets: pointers fall", mutate: func(t *testing.T, s *Solver[float64]) {
			tb := &s.tris[0]
			n := tb.hi - tb.lo
			tb.info.LevelPtr = []int{0, n, 0, n}
		}},
		"completely parallel block with strict entries": {want: "tri block 0: completely-parallel block has", mutate: func(t *testing.T, s *Solver[float64]) {
			s.tris[0].kernel = kernels.TriCompletelyParallel
		}},
		"cusparse block without its CSR or schedule": {want: "tri block 0: cusparse-like block missing structures", mutate: func(t *testing.T, s *Solver[float64]) {
			s.tris[0].kernel = kernels.TriCuSparseLike
		}},
		"cusparse CSR with broken row pointers": {want: "tri block 0: " + sparse.ErrShape.Error(), mutate: func(t *testing.T, s *Solver[float64]) {
			r := cuSparseTri(s).strictCSR
			r.RowPtr[r.Rows]++
		}},
		"cusparse CSR outside window": {want: "tri block 0: CSR is", mutate: func(t *testing.T, s *Solver[float64]) {
			r := cuSparseTri(s).strictCSR
			r.Rows, r.Cols = r.Rows+1, r.Cols+1
			r.RowPtr = append(r.RowPtr, r.NNZ())
		}},
		"cusparse CSR entry on its diagonal": {want: "tri block 0: CSR row", mutate: func(t *testing.T, s *Solver[float64]) {
			r := cuSparseTri(s).strictCSR
			i := 0
			for r.RowPtr[i] == r.RowPtr[i+1] {
				i++
			}
			r.ColIdx[r.RowPtr[i+1]-1] = i
		}},
		"cusparse schedule with a chunk too many": {want: "tri block 0: schedule has", mutate: func(t *testing.T, s *Solver[float64]) {
			tb := cuSparseTri(s)
			chunkPtr, serial, items := tb.sched.Data()
			tb.sched = kernels.NewMergedScheduleFromData(chunkPtr, append(slices.Clone(serial), false), items)
		}},
		"unknown triangle kernel": {want: "tri block 0: unknown kernel", mutate: func(t *testing.T, s *Solver[float64]) { s.tris[0].kernel = 99 }},
		"csr kernel without csr":  {want: "square block 0: scalar-csr block stores no CSR", mutate: func(t *testing.T, s *Solver[float64]) { csrSquare(t, s).csr = nil }},
		"unknown square kernel":   {want: "square block 0: unknown kernel", mutate: func(t *testing.T, s *Solver[float64]) { csrSquare(t, s).kernel = 99 }},
		"square CSR with broken row pointers": {want: "square block 0: " + sparse.ErrShape.Error(), mutate: func(t *testing.T, s *Solver[float64]) {
			m := csrSquare(t, s).csr
			m.RowPtr[m.Rows]++
		}},
		"square DCSR with broken row pointers": {want: "square block 0: " + sparse.ErrShape.Error(), mutate: func(t *testing.T, s *Solver[float64]) {
			d := dcsrSquare(t, s).dcsr
			d.RowPtr[len(d.RowPtr)-1]++
		}},
		"square DCSR outside window": {want: "square block 0: DCSR is", mutate: func(t *testing.T, s *Solver[float64]) {
			dcsrSquare(t, s).dcsr.Rows++
		}},
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
			tb := cuSparseTri(s)
			chunkPtr, serial, items := tb.sched.Data()
			tb.sched = kernels.NewMergedScheduleFromData(chunkPtr, serial, items[:len(items)-1])
		}},
		"leaf entry reading a row not placed before it": {leaf: true, want: "which is not placed before it", mutate: func(t *testing.T, s *Solver[float64]) {
			// The stream stores the leaf as L. Move one strict entry of a
			// copy of L to a column between its neighbours whose row the
			// level order places after this one.
			tb := &s.tris[0]
			m := tb.inOrder.Clone()
			tb.inOrder = m
			for i := 0; i < m.Rows; i++ {
				cols := m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]]
				for e := 0; e+1 < len(cols); e++ {
					lo := 0
					if e > 0 {
						lo = cols[e-1] + 1
					}
					for c := lo; c < cols[e+1]; c++ {
						if s.perm[c] > s.perm[i] {
							cols[e] = c
							return
						}
					}
				}
			}
			t.Fatal("no entry can read a later row")
		}},
		"leaf row not ending in its own diagonal": {leaf: true, want: "row 0 has entry in column 1", mutate: func(t *testing.T, s *Solver[float64]) {
			tb := &s.tris[0]
			m := tb.inOrder.Clone()
			tb.inOrder = m
			m.ColIdx[m.RowPtr[1]-1]++ // row 0's diagonal moves to column 1: still sorted and in range
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
			if tc.leaf {
				s, err = Preprocess(grid, gatherDefaults(pool))
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.leaf && (len(s.tris) != 1 || s.tris[0].ord == nil) {
				t.Fatal("want one level-ordered whole leaf")
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
			_, err = ReadSolver[float64](bytes.NewReader(data), pool)
			if !errors.Is(err, ErrSerialize) {
				t.Fatalf("corrupted stream: got %v, want ErrSerialize", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("corrupted stream: got %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestSerializeRejectsEveryTruncation: no proper prefix of a stream
// loads. A cut inside a length prefix, an index, value or schedule
// array, or the checksum fails with ErrSerialize instead of yielding a
// short solver.
func TestSerializeRejectsEveryTruncation(t *testing.T) {
	pool := exec.NewPool(2)
	l := gen.Layered(64, 4, 3, 0, 505)
	s, err := Preprocess(l, Options{Pool: pool, Kind: Recursive, MinBlockRows: 32, Reorder: true, ForceTri: kernels.TriCuSparseLike})
	if err != nil {
		t.Fatal(err)
	}
	if s.TriKernelCounts()[kernels.TriCuSparseLike] == 0 {
		t.Fatalf("plan runs %v, want a cusparse-like schedule in the stream", s.TriKernelCounts())
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// A stride of 7 bytes, prime to the 8-byte fields, cuts each field
	// at every offset somewhere along the stream.
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := ReadSolver[float64](bytes.NewReader(data[:cut]), pool); !errors.Is(err, ErrSerialize) {
			t.Fatalf("stream cut at byte %d of %d: got %v, want ErrSerialize", cut, len(data), err)
		}
	}
	if _, err := ReadSolver[float64](bytes.NewReader(data), pool); err != nil {
		t.Fatalf("the whole stream: %v", err)
	}
}

// errWriterFull is what fullWriter returns once its limit is reached.
var errWriterFull = errors.New("writer full")

// fullWriter takes limit bytes and then fails, as a full disk does.
type fullWriter struct{ n, limit int }

func (w *fullWriter) Write(p []byte) (int, error) {
	k := min(len(p), w.limit-w.n)
	w.n += k
	if k < len(p) {
		return k, errWriterFull
	}
	return k, nil
}

// TestWriteToReportsWriterError: a writer that fails part-way, as a full
// disk does under -save-analysis, makes WriteTo return its error and
// count only the bytes the writer took, wherever in the stream it fails.
func TestWriteToReportsWriterError(t *testing.T) {
	pool := exec.NewPool(2)
	s, err := Preprocess(gen.Layered(4000, 4, 6, 0, 501), Options{Pool: pool, Kind: Recursive, MinBlockRows: 2000, Reorder: true, ForceTri: kernels.TriSerial})
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if _, err := s.WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 100, full.Len() / 2, full.Len() - 4} {
		w := &fullWriter{limit: limit}
		n, err := s.WriteTo(w)
		if !errors.Is(err, errWriterFull) {
			t.Fatalf("writer full after %d of %d bytes: got %v, want its error", limit, full.Len(), err)
		}
		if n != int64(w.n) {
			t.Fatalf("writer full after %d of %d bytes: WriteTo counted %d bytes, the writer took %d", limit, full.Len(), n, w.n)
		}
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

// dcsrSquare moves the solver's first CSR square to DCSR storage under a
// DCSR kernel and returns it.
func dcsrSquare(t *testing.T, s *Solver[float64]) *sqBlock[float64] {
	t.Helper()
	sb := csrSquare(t, s)
	sb.kernel = kernels.SpMVScalarDCSR
	sb.dcsr, sb.csr = sb.csr.ToDCSR(), nil
	return sb
}

// cuSparseTri turns the solver's first triangle into a coherent
// cusparse-like block, with the CSR copy and merged schedule that kernel
// reads, and returns it.
func cuSparseTri(s *Solver[float64]) *triBlock[float64] {
	tb := &s.tris[0]
	tb.kernel = kernels.TriCuSparseLike
	tb.strictCSR = tb.strictCSC.ToCSR()
	tb.sched = kernels.NewMergedSchedule(tb.info, 0, 2)
	return tb
}

// stepOf returns the solver's first plan step of the given kind.
func stepOf(t *testing.T, s *Solver[float64], kind segKind) *planStep {
	t.Helper()
	for i := range s.steps {
		if s.steps[i].kind == kind {
			return &s.steps[i]
		}
	}
	t.Fatalf("no step of kind %d", kind)
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
