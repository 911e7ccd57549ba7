package exec

import (
	"math"
	"sync/atomic"
	"unsafe"

	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// AtomicAddFloat atomically adds v to *p with a compare-and-swap loop on
// the float's bit pattern — the CPU analogue of CUDA's atomicAdd on
// float/double. The pointer must be naturally aligned, which Go guarantees
// for slice elements of float32/float64.
//
//sptrsv:hotpath
func AtomicAddFloat[T sparse.Float](p *T, v T) {
	// The addend conversion is hoisted out of the CAS loops so a contended
	// retry repeats only the load/add/CAS, not the T→float conversion.
	if unsafe.Sizeof(*p) == 8 {
		ap := (*uint64)(unsafe.Pointer(p))
		add := float64(v)
		for {
			old := atomic.LoadUint64(ap)
			nv := math.Float64bits(math.Float64frombits(old) + add)
			if atomic.CompareAndSwapUint64(ap, old, nv) {
				return
			}
		}
	}
	ap := (*uint32)(unsafe.Pointer(p))
	add := float32(v)
	for {
		old := atomic.LoadUint32(ap)
		nv := math.Float32bits(math.Float32frombits(old) + add)
		if atomic.CompareAndSwapUint32(ap, old, nv) {
			return
		}
	}
}

// AtomicLoadFloat atomically reads *p.
//
//sptrsv:hotpath
func AtomicLoadFloat[T sparse.Float](p *T) T {
	if unsafe.Sizeof(*p) == 8 {
		return T(math.Float64frombits(atomic.LoadUint64((*uint64)(unsafe.Pointer(p)))))
	}
	return T(math.Float32frombits(atomic.LoadUint32((*uint32)(unsafe.Pointer(p)))))
}

// AtomicStoreFloat atomically writes v to *p.
//
//sptrsv:hotpath
func AtomicStoreFloat[T sparse.Float](p *T, v T) {
	if unsafe.Sizeof(*p) == 8 {
		atomic.StoreUint64((*uint64)(unsafe.Pointer(p)), math.Float64bits(float64(v)))
		return
	}
	atomic.StoreUint32((*uint32)(unsafe.Pointer(p)), math.Float32bits(float32(v)))
}

// PaddedInt32 is an atomic.Int32 padded out to a 64-byte cache line.
// Dependency counters that distinct workers decrement concurrently (the
// sync-free in-degrees) are stored as one PaddedInt32 each so that a
// decrement on one counter does not bounce the cache line holding its
// neighbours between cores — with bare Int32s, sixteen unrelated
// counters share a line and every atomic op invalidates all of them.
type PaddedInt32 struct {
	V atomic.Int32
	_ [60]byte
}
