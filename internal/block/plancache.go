package block

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/sss-lab/blocksptrsv/internal/plancache"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// Plan-cache integration (DESIGN.md §6.11). When Options.PlanCache is
// set, Preprocess becomes content-addressed: the matrix structure plus
// an options fingerprint key a serialized plan in the cache, so a
// restarted process (or a second process sharing the cache directory)
// loads the analysis instead of redoing it. The cache key excludes the
// numeric values — a numeric update on a fixed sparsity pattern still
// hits — and the stored payload carries a hash of the values it was
// built from, so a hit with different numbers refreshes every value
// array from the caller's matrix (an O(nnz) copy, not an analysis).

// planPayloadHeader is the payload's fixed prologue: the value hash of
// the matrix the plan was serialized from.
const planPayloadHeader = 8

var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// cacheKey derives the plan-cache key for (matrix structure, options).
// Every option that changes the preprocessed plan participates, and so
// do the solver-stream version, the rule that shapes the recursion tree
// (treeRule) and the form of its serial leaves (leafForm); values
// deliberately do not (see the package comment above).
func cacheKey[T sparse.Float](l *sparse.CSR[T], o Options) string {
	var probe T
	width := 4
	if probeIs64(probe) {
		width = 8
	}
	fp := fmt.Sprintf("serial=%d|tree=%s|form=%s|w%d|kind=%d|nseg=%d|minrows=%d|maxdepth=%d|reorder=%t|adaptive=%t|th=%+v|ftri=%d|fspmv=%d|cal=%t|calreps=%d|workers=%d",
		serialVersion, treeRule, leafForm, width, o.Kind, o.NSeg, o.MinBlockRows, o.MaxDepth,
		o.Reorder, o.Adaptive, o.Thresholds, o.ForceTri, o.ForceSpMV,
		o.Calibrate, o.CalibrateRepeats, o.Pool.Workers())
	return plancache.DeriveKey(plancache.StructureKey(l.Rows, l.RowPtr, l.ColIdx), fp)
}

// valueHash folds the matrix values into 64 bits built from two
// independent CRC32s (IEEE and Castagnoli — both hardware-accelerated
// on amd64/arm64, unlike any stdlib CRC64). It runs on every cached
// lookup, so it sits directly on the warm-start path; its job is
// detecting numeric updates between runs, where two independent 32-bit
// checks are as good as one 64-bit one.
func valueHash[T sparse.Float](vals []T) uint64 {
	var ieee, cast uint32
	var buf [2048 * 8]byte
	for len(vals) > 0 {
		n := len(vals)
		if n > 2048 {
			n = 2048
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(float64(vals[i])))
		}
		ieee = crc32.Update(ieee, crc32.IEEETable, buf[:n*8])
		cast = crc32.Update(cast, castagnoliTable, buf[:n*8])
		vals = vals[n:]
	}
	return uint64(ieee)<<32 | uint64(cast)
}

// encodePlanPayload serializes a preprocessed solver into a cache
// payload: the value hash of the matrix it was built from, then the
// versioned solver stream.
func encodePlanPayload[T sparse.Float](s *Solver[T], l *sparse.CSR[T]) ([]byte, error) {
	var buf bytes.Buffer
	var hdr [planPayloadHeader]byte
	binary.LittleEndian.PutUint64(hdr[:], valueHash(l.Val))
	buf.Write(hdr[:])
	if _, err := s.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodePlanPayload rebuilds a solver from a cache payload, binding it
// to the caller's matrix and options. A payload built from different
// values (same structure) gets every value array refreshed from l.
func decodePlanPayload[T sparse.Float](payload []byte, l *sparse.CSR[T], o Options) (*Solver[T], error) {
	if len(payload) < planPayloadHeader {
		return nil, fmt.Errorf("%w: %d-byte payload", ErrSerialize, len(payload))
	}
	stored := binary.LittleEndian.Uint64(payload)
	s, err := readSolverBytes[T](payload[planPayloadHeader:], o.Pool)
	if err != nil {
		return nil, err
	}
	if stored != valueHash(l.Val) {
		if err := s.RefreshValues(l); err != nil {
			return nil, err
		}
	}
	// Adopt the caller's full options: the serialized stream carries only
	// the plan-shaping subset (Kind, Reorder — both part of the cache
	// key), while the runtime knobs (guarded-path tolerances, timeouts,
	// instrumentation) must follow this construction, not the one that
	// populated the cache.
	s.opts = o
	s.pool = o.Pool
	s.orig = l
	if o.Trace != nil {
		s.SetTrace(o.Trace)
	}
	return s, nil
}

// errInPlace keeps an in-place plan out of the plan cache. Its analysis
// is a level walk over L and nothing more, while its payload would be a
// copy of L that every hit must read and check, so loading it costs
// more than analysing again.
var errInPlace = errors.New("block: in-place plan is not cached")

// preprocessCached is Preprocess behind a plan cache: load on hit,
// analyze-and-store on miss, with concurrent misses for the same key
// single-flighted down to one analysis. In-place plans are analysed and
// not stored (errInPlace).
func preprocessCached[T sparse.Float](l *sparse.CSR[T], o Options) (*Solver[T], error) {
	cache := o.PlanCache
	key := cacheKey(l, o)
	var built *Solver[T]
	payload, _, err := cache.GetOrCreate(key, func() ([]byte, error) {
		s, err := preprocessCold(l, o)
		if err != nil {
			return nil, err
		}
		built = s
		if s.inPlace {
			return nil, errInPlace
		}
		return encodePlanPayload(s, l)
	})
	if errors.Is(err, errInPlace) {
		if built != nil {
			return built, nil
		}
		// A concurrent caller analysed the same plan and did not store
		// it: analyse here too.
		return preprocessCold(l, o)
	}
	if err != nil {
		return nil, err
	}
	if built != nil {
		// This goroutine ran the analysis; the solver in hand is fresher
		// than its serialization (it still has Explain's depth info).
		return built, nil
	}
	s, err := decodePlanPayload[T](payload, l, o)
	if err == nil {
		return s, nil
	}
	// The cached payload did not decode (stale solver-stream version, a
	// collision with a foreign payload, a refresh mismatch). Treat it as
	// a miss: analyze cold and repair the entry, unless the plan is in
	// place (errInPlace).
	s, cerr := preprocessCold(l, o)
	if cerr != nil {
		return nil, cerr
	}
	if s.inPlace {
		return s, nil
	}
	if p2, perr := encodePlanPayload(s, l); perr == nil {
		if perr := cache.Put(key, p2); perr != nil {
			// Persisting the repair is best-effort; the solve must not
			// fail because the cache directory is unhappy.
			_ = perr
		}
	}
	return s, nil
}

// RefreshValues re-derives every numeric array of the plan (block
// values, diagonals, alternate-format copies, gather leaves) from the
// caller's matrix, keeping all symbolic structure — permutation,
// partition, level sets, schedules, kernel choices and serial forms —
// intact. It is the value-update half of the plan cache: same sparsity
// pattern, new numbers, no re-analysis. The matrix must have exactly the
// structure the plan was built from; a mismatch returns an error wrapping
// ErrSerialize and the solver is left unusable. Like Preprocess, the
// solver keeps a reference to l: an in-place plan solves on l itself.
func (s *Solver[T]) RefreshValues(l *sparse.CSR[T]) error {
	if l.Rows != s.n || l.Cols != s.n {
		return fmt.Errorf("%w: refresh with %dx%d matrix, plan is %dx%d", ErrSerialize, l.Rows, l.Cols, s.n, s.n)
	}
	cur := l
	if s.perm != nil {
		var err error
		cur, err = sparse.PermuteSym(l, s.perm)
		if err != nil {
			return fmt.Errorf("%w: refresh: %v", ErrSerialize, err)
		}
	}
	var cscAll *sparse.CSC[T]
	for i := range s.tris {
		tb := &s.tris[i]
		if tb.lower != nil {
			nnz := tb.lower.NNZ()
			tb.lower = gatherCSR(cur, tb.lo, tb.hi)
			if err := tb.validate(); err != nil {
				return fmt.Errorf("%w: refresh tri block %d: %v", ErrSerialize, i, err)
			}
			if tb.lower.NNZ() != nnz {
				return fmt.Errorf("%w: refresh tri block %d: structure mismatch", ErrSerialize, i)
			}
			continue
		}
		if cscAll == nil {
			cscAll = cur.ToCSC()
		}
		strict, diag, err := sparse.SplitDiagBlock(cscAll, tb.lo, tb.hi)
		if err != nil {
			return fmt.Errorf("%w: refresh tri block %d: %v", ErrSerialize, i, err)
		}
		if strict.NNZ() != tb.strictCSC.NNZ() || len(diag) != len(tb.diag) {
			return fmt.Errorf("%w: refresh tri block %d: structure mismatch", ErrSerialize, i)
		}
		tb.strictCSC = strict
		tb.diag = diag
		if tb.strictCSR != nil {
			tb.strictCSR = strict.ToCSR()
		}
	}
	for i := range s.sqs {
		sb := &s.sqs[i]
		csr := sparse.SubCSR(cur, sb.spec.rowLo, sb.spec.rowHi, sb.spec.colLo, sb.spec.colHi)
		switch {
		case sb.csr != nil:
			if csr.NNZ() != sb.csr.NNZ() {
				return fmt.Errorf("%w: refresh square block %d: structure mismatch", ErrSerialize, i)
			}
			sb.csr = csr
		case sb.dcsr != nil:
			if csr.NNZ() != sb.dcsr.NNZ() {
				return fmt.Errorf("%w: refresh square block %d: structure mismatch", ErrSerialize, i)
			}
			sb.dcsr = csr.ToDCSR()
		}
	}
	s.orig = l
	return nil
}
