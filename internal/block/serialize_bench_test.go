package block

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// BenchmarkLoadSolver times what a saved analysis buys: analyze is
// Preprocess under the shipped device-L options, load is ReadSolver of the
// stream WriteTo wrote, read from memory. Loading pays on the powerlaw
// suite matrix, whose analysis levels and splits it; it loses on the
// layered one, whose plan is one gather leaf on the caller's matrix, so
// analysis copies nothing while the stream carries a copy of L
// (EXPERIMENTS.md, "The plan cache on a restart"):
//
//	go test -run '^$' -bench LoadSolver -count 5 ./internal/block
func BenchmarkLoadSolver(b *testing.B) {
	dev := exec.DefaultDevices()[1]
	pool := dev.Pool()
	defer exec.CloseLauncher(pool)
	o := Defaults(dev)
	o.Pool = pool
	for _, m := range []struct {
		name string
		l    *sparse.CSR[float64]
	}{
		{"powerlaw", gen.PowerLaw(80_000, 4, 0.01, 4105)},
		{"layered", gen.Layered(100_000, 512, 6, 0, 4104)},
	} {
		s, err := Preprocess(m.l, o)
		if err != nil {
			b.Fatal(err)
		}
		var stream bytes.Buffer
		if _, err := s.WriteTo(&stream); err != nil {
			b.Fatal(err)
		}
		b.Run(m.name+"/analyze", func(b *testing.B) {
			for b.Loop() {
				if _, err := Preprocess(m.l, o); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(m.name+"/load", func(b *testing.B) {
			for b.Loop() {
				if _, err := ReadSolver[float64](bytes.NewReader(stream.Bytes()), pool); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReadSolverAllocs pins what ReadSolver allocates beyond the arrays
// it decodes from the stream and those it makes itself (loadedArrays).
// On powerlaw's plan that is the reader's one buffer and a few kilobytes
// of headers: a buffer per array, or an allocation per scalar field, as
// the reader made before, exceeds it.
func TestReadSolverAllocs(t *testing.T) {
	dev := exec.DefaultDevices()[1]
	pool := dev.Pool()
	defer exec.CloseLauncher(pool)
	o := Defaults(dev)
	o.Pool = pool
	s, err := Preprocess(gen.PowerLaw(80_000, 4, 0.01, 4105), o)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if _, err := s.WriteTo(&stream); err != nil {
		t.Fatal(err)
	}
	const loads = 3
	var back *Solver[float64]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range loads {
		if back, err = ReadSolver[float64](bytes.NewReader(stream.Bytes()), pool); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perLoad := int64(after.TotalAlloc-before.TotalAlloc) / loads
	decoded, made := loadedArrays(back)
	t.Logf("stream %d bytes; a load allocates %d bytes in %d objects: %d decoded, %d made",
		stream.Len(), perLoad, (after.Mallocs-before.Mallocs)/loads, decoded, made)
	const headers = 48 << 10 // the solver, its blocks' headers, the bufio.Reader
	if beyond := perLoad - decoded - made; beyond > serialChunk*8+headers {
		t.Fatalf("a load allocates %d bytes beyond its arrays, more than one %d-byte reader buffer and %d bytes of headers",
			beyond, serialChunk*8, headers)
	}
}

// loadedArrays sums the heap bytes of the arrays a load allocates: those
// ReadSolver decodes from the stream, and those it makes itself, which
// the stream does not carry (the session's scratch, the level sets' row
// maps, the sync-free counters, and the one bit a row with which the
// load-time checks test the permutation and every level set and
// schedule, shared by all of them). The heap serves an array of more
// than 32 KiB in whole 8 KiB pages, so each is counted rounded up to its
// pages. A bool a row for each check, as loads made before, is 117 KB on
// powerlaw and exceeds TestReadSolverAllocs's bound.
func loadedArrays(s *Solver[float64]) (decoded, made int64) {
	heap := func(bytes int) int64 {
		if bytes > 32<<10 {
			bytes = (bytes + 8191) &^ 8191
		}
		return int64(bytes)
	}
	ints := func(v []int) int64 { return heap(8 * len(v)) }
	floats := func(v []float64) int64 { return heap(8 * len(v)) }
	csr := func(m *sparse.CSR[float64]) int64 {
		if m == nil {
			return 0
		}
		return ints(m.RowPtr) + ints(m.ColIdx) + floats(m.Val)
	}
	decoded = ints(s.perm)
	made = floats(s.own.w) + floats(s.own.xp) + heap(8*((s.n+63)/64))
	for i := range s.tris {
		tb := &s.tris[i]
		decoded += floats(tb.diag) + csr(tb.lower) + csr(tb.strictCSR)
		if c := tb.strictCSC; c != nil {
			decoded += ints(c.ColPtr) + ints(c.RowIdx) + floats(c.Val)
		}
		if tb.info != nil {
			decoded += ints(tb.info.LevelPtr) + ints(tb.info.LevelItem)
			made += ints(tb.info.Level)
		}
		if tb.sched != nil {
			cp, serial, items := tb.sched.Data()
			decoded += ints(cp) + heap(len(serial)) + ints(items)
		}
		if tb.state != nil {
			made += heap(4*len(tb.state.BaseCounts())) + heap(64*len(tb.state.BaseCounts()))
		}
	}
	for i := range s.sqs {
		sb := &s.sqs[i]
		decoded += csr(sb.csr)
		if d := sb.dcsr; d != nil {
			decoded += ints(d.RowIdx) + ints(d.RowPtr) + ints(d.ColIdx) + floats(d.Val)
		}
	}
	return decoded, made
}
