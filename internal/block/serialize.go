package block

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/sss-lab/blocksptrsv/internal/adapt"
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/kernels"
	"github.com/sss-lab/blocksptrsv/internal/levelset"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Solver serialisation: the preprocessed structure (permutation, blocks in
// execution order, per-block formats, kernel choices and their auxiliary
// schedules) can be written to disk and reloaded, so the analysis cost is
// paid once across program runs — the file-backed equivalent of keeping a
// cusparse analysis handle alive.
//
// The format is a little-endian stream: magic, version, element width,
// then length-prefixed arrays. It is independent of word size and
// validated on load. Version 3 stores each triangle's serial form: a
// gather leaf is its lower CSR and level count, any other triangle its
// split CSC, level sets and kernel structures. Older streams are refused.

const (
	serialMagic   = "BSPTRSV"
	serialVersion = 3
)

// ErrSerialize reports a malformed or incompatible solver stream.
var ErrSerialize = errors.New("block: invalid solver stream")

type serialWriter struct {
	w   *bufio.Writer
	err error
}

func (sw *serialWriter) u64(v uint64) {
	if sw.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, sw.err = sw.w.Write(buf[:])
}

func (sw *serialWriter) i(v int)  { sw.u64(uint64(int64(v))) }
func (sw *serialWriter) b(v bool) { sw.u64(map[bool]uint64{false: 0, true: 1}[v]) }
func (sw *serialWriter) bytes(p []byte) {
	if sw.err != nil {
		return
	}
	_, sw.err = sw.w.Write(p)
}

// chunk is the scratch size of the bulk array codecs: arrays are staged
// through a buffer this large so the element loops run over memory and
// the writer/reader/CRC see few large calls instead of one call per
// element. The byte stream is identical to the per-element encoding.
const serialChunk = 4096

func (sw *serialWriter) bulk(n int, put func(buf []byte, i int)) {
	if sw.err != nil {
		return
	}
	var buf [serialChunk * 8]byte
	for base := 0; base < n; base += serialChunk {
		cnt := n - base
		if cnt > serialChunk {
			cnt = serialChunk
		}
		for i := 0; i < cnt; i++ {
			put(buf[i*8:], base+i)
		}
		if _, sw.err = sw.w.Write(buf[:cnt*8]); sw.err != nil {
			return
		}
	}
}

func (sw *serialWriter) ints(v []int) {
	sw.i(len(v))
	sw.bulk(len(v), func(buf []byte, i int) {
		binary.LittleEndian.PutUint64(buf, uint64(int64(v[i])))
	})
}

func (sw *serialWriter) bools(v []bool) {
	sw.i(len(v))
	sw.bulk(len(v), func(buf []byte, i int) {
		var x uint64
		if v[i] {
			x = 1
		}
		binary.LittleEndian.PutUint64(buf, x)
	})
}

func floats[T sparse.Float](sw *serialWriter, v []T) {
	sw.i(len(v))
	var probe T
	if probeIs64(probe) {
		sw.bulk(len(v), func(buf []byte, i int) {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(v[i])))
		})
		return
	}
	sw.bulk(len(v), func(buf []byte, i int) {
		binary.LittleEndian.PutUint64(buf, uint64(math.Float32bits(float32(v[i]))))
	})
}

func probeIs64[T sparse.Float](probe T) bool {
	// The only two instantiations are float32 and float64; distinguishing
	// by conversion loss avoids unsafe here.
	return T(1)/T(3) != T(float32(1)/float32(3))
}

// serialReader decodes the solver stream, folding every byte it reads
// into a running CRC that the trailer is checked against.
type serialReader struct {
	r   *bufio.Reader
	crc uint32
	err error
}

// read consumes exactly len(p) bytes, folding them into the running CRC.
func (sr *serialReader) read(p []byte) {
	if sr.err != nil {
		return
	}
	if _, err := io.ReadFull(sr.r, p); err != nil {
		sr.err = err
		return
	}
	sr.crc = crc32.Update(sr.crc, crc32.IEEETable, p)
}

func (sr *serialReader) u64() uint64 {
	var buf [8]byte
	sr.read(buf[:])
	if sr.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(buf[:])
}

func (sr *serialReader) i() int  { return int(int64(sr.u64())) }
func (sr *serialReader) b() bool { return sr.u64() != 0 }

// length reads a length prefix, guarding against absurd values so a
// corrupt stream cannot trigger huge allocations.
func (sr *serialReader) length(max int) int {
	n := sr.i()
	if n < 0 || n > max {
		if sr.err == nil {
			sr.err = fmt.Errorf("%w: length %d out of range", ErrSerialize, n)
		}
		return 0
	}
	return n
}

const maxSerialLen = 1 << 34 // generous sanity cap on array lengths

// The array decoders below share one shape: chunked reads into a
// scratch buffer with a type-specialised inner loop (a per-element
// callback would cost a dynamic call per element — measurably slower on
// multi-megabyte streams).

func (sr *serialReader) ints() []int {
	n := sr.length(maxSerialLen)
	v := make([]int, n)
	var scratch [serialChunk * 8]byte
	for base := 0; base < n; {
		cnt := n - base
		if cnt > serialChunk {
			cnt = serialChunk
		}
		p := scratch[:cnt*8]
		sr.read(p)
		if sr.err != nil {
			return v
		}
		for i := 0; i < cnt; i++ {
			v[base+i] = int(int64(binary.LittleEndian.Uint64(p[i*8:])))
		}
		base += cnt
	}
	return v
}

func (sr *serialReader) bools() []bool {
	n := sr.length(maxSerialLen)
	v := make([]bool, n)
	var scratch [serialChunk * 8]byte
	for base := 0; base < n; {
		cnt := n - base
		if cnt > serialChunk {
			cnt = serialChunk
		}
		p := scratch[:cnt*8]
		sr.read(p)
		if sr.err != nil {
			return v
		}
		for i := 0; i < cnt; i++ {
			v[base+i] = binary.LittleEndian.Uint64(p[i*8:]) != 0
		}
		base += cnt
	}
	return v
}

func readFloats[T sparse.Float](sr *serialReader) []T {
	n := sr.length(maxSerialLen)
	v := make([]T, n)
	var probe T
	is64 := probeIs64(probe)
	var scratch [serialChunk * 8]byte
	for base := 0; base < n; {
		cnt := n - base
		if cnt > serialChunk {
			cnt = serialChunk
		}
		p := scratch[:cnt*8]
		sr.read(p)
		if sr.err != nil {
			return v
		}
		if is64 {
			for i := 0; i < cnt; i++ {
				v[base+i] = T(math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:])))
			}
		} else {
			for i := 0; i < cnt; i++ {
				v[base+i] = T(math.Float32frombits(uint32(binary.LittleEndian.Uint64(p[i*8:]))))
			}
		}
		base += cnt
	}
	return v
}

func writeCSC[T sparse.Float](sw *serialWriter, m *sparse.CSC[T]) {
	sw.i(m.Rows)
	sw.i(m.Cols)
	sw.ints(m.ColPtr)
	sw.ints(m.RowIdx)
	floats(sw, m.Val)
}

func readCSC[T sparse.Float](sr *serialReader) *sparse.CSC[T] {
	m := &sparse.CSC[T]{Rows: sr.i(), Cols: sr.i(), ColPtr: sr.ints(), RowIdx: sr.ints()}
	m.Val = readFloats[T](sr)
	return m
}

func writeCSR[T sparse.Float](sw *serialWriter, m *sparse.CSR[T]) {
	sw.i(m.Rows)
	sw.i(m.Cols)
	sw.ints(m.RowPtr)
	sw.ints(m.ColIdx)
	floats(sw, m.Val)
}

func readCSR[T sparse.Float](sr *serialReader) *sparse.CSR[T] {
	m := &sparse.CSR[T]{Rows: sr.i(), Cols: sr.i(), RowPtr: sr.ints(), ColIdx: sr.ints()}
	m.Val = readFloats[T](sr)
	return m
}

// WriteTo serialises the preprocessed solver. It returns the byte count
// written and the first error encountered.
func (s *Solver[T]) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	sw := &serialWriter{w: bufio.NewWriter(cw)}
	sw.bytes([]byte(serialMagic))
	sw.u64(serialVersion)
	var probe T
	if probeIs64(probe) {
		sw.u64(8)
	} else {
		sw.u64(4)
	}
	sw.i(s.n)
	sw.u64(uint64(s.opts.Kind))
	sw.b(s.opts.Reorder)
	sw.i(int(s.traffic.BUpdates))
	sw.i(int(s.traffic.XLoads))
	sw.i(s.sqNNZ)
	sw.ints(s.perm)

	sw.i(len(s.steps))
	for _, st := range s.steps {
		sw.u64(uint64(st.kind))
		sw.i(st.idx)
	}

	sw.i(len(s.tris))
	for i := range s.tris {
		tb := &s.tris[i]
		sw.i(tb.lo)
		sw.i(tb.hi)
		sw.u64(uint64(tb.kernel))
		sw.b(tb.lower != nil)
		if tb.lower != nil {
			writeCSR(sw, tb.lower)
			sw.i(tb.feats.NLevels)
			continue
		}
		floats(sw, tb.diag)
		writeCSC(sw, tb.strictCSC)
		sw.ints(tb.info.LevelPtr)
		sw.ints(tb.info.LevelItem)
		sw.b(tb.strictCSR != nil)
		if tb.strictCSR != nil {
			writeCSR(sw, tb.strictCSR)
		}
		sw.b(tb.sched != nil)
		if tb.sched != nil {
			cp, serial, items := tb.sched.Data()
			sw.ints(cp)
			sw.bools(serial)
			sw.ints(items)
		}
	}

	sw.i(len(s.sqs))
	for i := range s.sqs {
		sb := &s.sqs[i]
		sw.i(sb.spec.rowLo)
		sw.i(sb.spec.rowHi)
		sw.i(sb.spec.colLo)
		sw.i(sb.spec.colHi)
		sw.u64(uint64(sb.kernel))
		sw.b(sb.csr != nil)
		if sb.csr != nil {
			writeCSR(sw, sb.csr)
		}
		sw.b(sb.dcsr != nil)
		if sb.dcsr != nil {
			d := sb.dcsr
			sw.i(d.Rows)
			sw.i(d.Cols)
			sw.ints(d.RowIdx)
			sw.ints(d.RowPtr)
			sw.ints(d.ColIdx)
			floats(sw, d.Val)
		}
	}
	if sw.err == nil {
		sw.err = sw.w.Flush()
	}
	if sw.err == nil {
		// Trailer: CRC32 of everything written so far, outside the
		// checksummed region itself.
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(cw.crc))
		var k int
		k, sw.err = cw.w.Write(buf[:])
		cw.n += int64(k)
	}
	return cw.n, sw.err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	cw.n += int64(n)
	return n, err
}

// ReadSolver reloads a solver serialised by WriteTo and binds it to the
// given execution pool; a nil pool selects a GOMAXPROCS-wide implicit
// spin pool (exec.NewImplicitLauncher). The element type must match the
// one written.
func ReadSolver[T sparse.Float](r io.Reader, pool exec.Launcher) (*Solver[T], error) {
	sr := &serialReader{r: bufio.NewReader(r)}
	if pool == nil {
		pool = exec.NewImplicitLauncher(exec.LaunchSpin, 0)
	}
	magic := make([]byte, len(serialMagic))
	sr.read(magic)
	if sr.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSerialize, sr.err)
	}
	if string(magic) != serialMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrSerialize, magic)
	}
	if v := sr.u64(); v != serialVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrSerialize, v)
	}
	var probe T
	wantWidth := uint64(4)
	if probeIs64(probe) {
		wantWidth = 8
	}
	if gotWidth := sr.u64(); gotWidth != wantWidth {
		return nil, fmt.Errorf("%w: element width %d, loading as width %d", ErrSerialize, gotWidth, wantWidth)
	}

	s := &Solver[T]{pool: pool}
	s.n = sr.i()
	s.opts.Kind = Kind(sr.u64())
	s.opts.Reorder = sr.b()
	s.opts.Pool = pool
	s.traffic.BUpdates = int64(sr.i())
	s.traffic.XLoads = int64(sr.i())
	s.sqNNZ = sr.i()
	s.perm = sr.ints()
	if len(s.perm) == 0 {
		s.perm = nil
	}

	nsteps := sr.length(maxSerialLen)
	s.steps = make([]planStep, nsteps)
	for i := range s.steps {
		s.steps[i] = planStep{kind: segKind(sr.u64()), idx: sr.i()}
	}

	ntris := sr.length(maxSerialLen)
	s.tris = make([]triBlock[T], ntris)
	for i := range s.tris {
		tb := &s.tris[i]
		tb.lo = sr.i()
		tb.hi = sr.i()
		tb.kernel = kernels.TriKernel(sr.u64())
		if sr.b() {
			tb.lower = readCSR[T](sr)
			rows, nlevels := tb.lower.Rows, sr.i()
			tb.feats = adapt.NewTriFeatures(rows, tb.lower.NNZ()-rows, nlevels)
			continue
		}
		tb.diag = readFloats[T](sr)
		tb.strictCSC = readCSC[T](sr)
		levelPtr := sr.ints()
		levelItem := sr.ints()
		if sr.err == nil {
			tb.info = infoFromArrays(len(tb.diag), levelPtr, levelItem)
		}
		if sr.b() {
			tb.strictCSR = readCSR[T](sr)
		}
		if sr.b() {
			cp := sr.ints()
			serial := sr.bools()
			items := sr.ints()
			tb.sched = kernels.NewMergedScheduleFromData(cp, serial, items)
		}
		if sr.err == nil {
			tb.feats.Rows = tb.strictCSC.Rows
			tb.feats.StrictNNZ = tb.strictCSC.NNZ()
			if tb.feats.Rows > 0 {
				tb.feats.NNZPerRow = float64(tb.feats.StrictNNZ) / float64(tb.feats.Rows)
			}
			tb.feats.NLevels = tb.info.NLevels
		}
	}

	nsqs := sr.length(maxSerialLen)
	s.sqs = make([]sqBlock[T], nsqs)
	for i := range s.sqs {
		sb := &s.sqs[i]
		sb.spec = segSpec{kind: sqSeg, rowLo: sr.i(), rowHi: sr.i(), colLo: sr.i(), colHi: sr.i()}
		sb.kernel = kernels.SpMVKernel(sr.u64())
		if sr.b() {
			sb.csr = readCSR[T](sr)
		}
		if sr.b() {
			d := &sparse.DCSR[T]{Rows: sr.i(), Cols: sr.i(), RowIdx: sr.ints(), RowPtr: sr.ints(), ColIdx: sr.ints()}
			d.Val = readFloats[T](sr)
			sb.dcsr = d
		}
		if sr.err == nil {
			if sb.csr != nil {
				sb.feats.NNZ = sb.csr.NNZ()
			} else if sb.dcsr != nil {
				sb.feats.NNZ = sb.dcsr.NNZ()
			}
		}
	}

	if sr.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSerialize, sr.err)
	}
	// Verify the CRC trailer, which is outside the checksummed region,
	// before trusting anything.
	var trailer [8]byte
	if _, err := io.ReadFull(sr.r, trailer[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrSerialize, err)
	}
	if got := uint32(binary.LittleEndian.Uint64(trailer[:])); got != sr.crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSerialize)
	}
	if err := s.validateLoaded(); err != nil {
		return nil, err
	}
	s.inPlace = s.onlyGatherLeaf()
	// The sync-free in-degrees are the strict row counts of the block's
	// CSC, so they are rebuilt, not stored: no stream can carry counts
	// that contradict its own structure and stall the first solve.
	for i := range s.tris {
		if tb := &s.tris[i]; tb.kernel == kernels.TriSyncFree {
			tb.state = kernels.NewSyncFreeState(tb.strictCSC)
		}
	}
	s.own = s.newSession()
	return s, nil
}

// infoFromArrays rebuilds a levelset.Info from its serialised arrays.
func infoFromArrays(n int, levelPtr, levelItem []int) *levelset.Info {
	info := &levelset.Info{
		N:         n,
		NLevels:   len(levelPtr) - 1,
		LevelPtr:  levelPtr,
		LevelItem: levelItem,
		Level:     make([]int, n),
	}
	if info.NLevels < 0 {
		info.NLevels = 0
	}
	for l := 0; l+1 < len(levelPtr); l++ {
		for k := levelPtr[l]; k < levelPtr[l+1] && k < len(levelItem); k++ {
			if it := levelItem[k]; it >= 0 && it < n {
				info.Level[it] = l
			}
		}
	}
	return info
}

// validateLoaded checks the structural coherence of a deserialised solver
// so a corrupt stream fails loudly instead of producing wrong solves:
// every block against its window and its kernel, then the plan's tiling.
// A stream that passes drives no kernel out of bounds or into a stall.
func (s *Solver[T]) validateLoaded() error {
	if s.n < 0 {
		return fmt.Errorf("%w: negative size", ErrSerialize)
	}
	if s.perm != nil {
		if err := sparse.CheckPerm(s.n, s.perm); err != nil {
			return fmt.Errorf("%w: %v", ErrSerialize, err)
		}
	}
	for i := range s.tris {
		if err := s.tris[i].validate(); err != nil {
			return fmt.Errorf("%w: tri block %d: %v", ErrSerialize, i, err)
		}
	}
	for i := range s.sqs {
		if err := s.sqs[i].validate(); err != nil {
			return fmt.Errorf("%w: square block %d: %v", ErrSerialize, i, err)
		}
	}
	plan := make([]segSpec, 0, len(s.steps))
	for _, st := range s.steps {
		switch st.kind {
		case triSeg:
			if st.idx < 0 || st.idx >= len(s.tris) {
				return fmt.Errorf("%w: tri step out of range", ErrSerialize)
			}
			tb := &s.tris[st.idx]
			plan = append(plan, segSpec{kind: triSeg, rowLo: tb.lo, rowHi: tb.hi, colLo: tb.lo, colHi: tb.hi})
		case sqSeg:
			if st.idx < 0 || st.idx >= len(s.sqs) {
				return fmt.Errorf("%w: square step out of range", ErrSerialize)
			}
			plan = append(plan, s.sqs[st.idx].spec)
		default:
			return fmt.Errorf("%w: unknown step kind", ErrSerialize)
		}
	}
	if err := planChecks(s.n, plan); err != nil {
		return fmt.Errorf("%w: %v", ErrSerialize, err)
	}
	return nil
}

// validate checks a loaded triangular block: a strictly lower CSC and a
// diagonal of its window's size, level sets over its rows, and the
// structures its kernel reads; or, in gather form, a serial leaf's lower
// CSR of its window's size with sorted rows, each ending in a nonzero
// diagonal.
func (tb *triBlock[T]) validate() error {
	n := tb.hi - tb.lo
	if m := tb.lower; m != nil {
		if tb.kernel != kernels.TriSerial {
			return fmt.Errorf("%v block stored in gather form", tb.kernel)
		}
		if err := m.Validate(); err != nil {
			return err
		}
		if m.Rows != n || m.Cols != n {
			return fmt.Errorf("gather CSR is %dx%d, window has %d rows", m.Rows, m.Cols, n)
		}
		if err := sparse.CheckLowerSolvable(m); err != nil {
			return fmt.Errorf("gather CSR: %w", err)
		}
		if l := tb.feats.NLevels; l < 0 || l > n {
			return fmt.Errorf("gather leaf has %d levels over %d rows", l, n)
		}
		return nil
	}
	c := tb.strictCSC
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Rows != n || c.Cols != n {
		return fmt.Errorf("CSC is %dx%d, window has %d rows", c.Rows, c.Cols, n)
	}
	for j := 0; j < n; j++ {
		if lo := c.ColPtr[j]; lo < c.ColPtr[j+1] && c.RowIdx[lo] <= j {
			return fmt.Errorf("CSC column %d is not strictly lower", j)
		}
	}
	if len(tb.diag) != n {
		return fmt.Errorf("diagonal has %d entries, window has %d rows", len(tb.diag), n)
	}
	if err := checkLevels(tb.info.LevelPtr, tb.info.LevelItem, n); err != nil {
		return fmt.Errorf("level sets: %v", err)
	}
	switch tb.kernel {
	case kernels.TriLevelSet, kernels.TriSyncFree, kernels.TriSerial:
	case kernels.TriCompletelyParallel:
		if c.NNZ() != 0 {
			return fmt.Errorf("%v block has %d off-diagonal entries", tb.kernel, c.NNZ())
		}
	case kernels.TriCuSparseLike:
		r := tb.strictCSR
		if r == nil || tb.sched == nil {
			return fmt.Errorf("%v block missing structures", tb.kernel)
		}
		if err := r.Validate(); err != nil {
			return err
		}
		if r.Rows != n || r.Cols != n {
			return fmt.Errorf("CSR is %dx%d, window has %d rows", r.Rows, r.Cols, n)
		}
		for i := 0; i < n; i++ {
			if hi := r.RowPtr[i+1]; hi > r.RowPtr[i] && r.ColIdx[hi-1] >= i {
				return fmt.Errorf("CSR row %d is not strictly lower", i)
			}
		}
		chunkPtr, serial, items := tb.sched.Data()
		if len(serial)+1 != len(chunkPtr) {
			return fmt.Errorf("schedule has %d chunk pointers for %d chunks", len(chunkPtr), len(serial))
		}
		if err := checkLevels(chunkPtr, items, n); err != nil {
			return fmt.Errorf("schedule: %v", err)
		}
	default:
		return fmt.Errorf("unknown kernel %v", tb.kernel)
	}
	return nil
}

// checkLevels checks a level-ordered row list: ptr rises from 0 to n and
// items is a permutation of the block's n rows.
func checkLevels(ptr, items []int, n int) error {
	if len(ptr) == 0 || ptr[0] != 0 || ptr[len(ptr)-1] != n {
		return fmt.Errorf("pointers do not run from 0 to %d", n)
	}
	for l := 1; l < len(ptr); l++ {
		if ptr[l] < ptr[l-1] {
			return fmt.Errorf("pointers fall at %d", l)
		}
	}
	return sparse.CheckPerm(n, items)
}

// validate checks a loaded square block: it stores the format its kernel
// reads, and every storage it holds is its window's size.
func (sb *sqBlock[T]) validate() error {
	rows, cols := sb.spec.rowHi-sb.spec.rowLo, sb.spec.colHi-sb.spec.colLo
	switch sb.kernel {
	case kernels.SpMVScalarCSR, kernels.SpMVVectorCSR, kernels.SpMVSerial:
		if sb.csr == nil {
			return fmt.Errorf("%v block stores no CSR", sb.kernel)
		}
	case kernels.SpMVScalarDCSR, kernels.SpMVVectorDCSR:
		if sb.dcsr == nil {
			return fmt.Errorf("%v block stores no DCSR", sb.kernel)
		}
	default:
		return fmt.Errorf("unknown kernel %v", sb.kernel)
	}
	if m := sb.csr; m != nil {
		if err := m.Validate(); err != nil {
			return err
		}
		if m.Rows != rows || m.Cols != cols {
			return fmt.Errorf("CSR is %dx%d, window is %dx%d", m.Rows, m.Cols, rows, cols)
		}
	}
	if m := sb.dcsr; m != nil {
		if err := m.Validate(); err != nil {
			return err
		}
		if m.Rows != rows || m.Cols != cols {
			return fmt.Errorf("DCSR is %dx%d, window is %dx%d", m.Rows, m.Cols, rows, cols)
		}
	}
	return nil
}
