package exec

import (
	"math"
	"runtime"
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

// AtomicMaxFloat atomically raises *p to v if v is larger.
//
//sptrsv:hotpath
func AtomicMaxFloat[T sparse.Float](p *T, v T) {
	if unsafe.Sizeof(*p) == 8 {
		ap := (*uint64)(unsafe.Pointer(p))
		for {
			old := atomic.LoadUint64(ap)
			if float64(v) <= math.Float64frombits(old) {
				return
			}
			if atomic.CompareAndSwapUint64(ap, old, math.Float64bits(float64(v))) {
				return
			}
		}
	}
	ap := (*uint32)(unsafe.Pointer(p))
	for {
		old := atomic.LoadUint32(ap)
		if float32(v) <= math.Float32frombits(old) {
			return
		}
		if atomic.CompareAndSwapUint32(ap, old, math.Float32bits(float32(v))) {
			return
		}
	}
}

// PaddedInt32 is an atomic.Int32 padded out to a 64-byte cache line.
// Dependency counters that distinct workers decrement concurrently (the
// sync-free in-degrees, the gather-form ready flags) are stored as one
// PaddedInt32 each so that a decrement on one counter does not bounce the
// cache line holding its neighbours between cores — with bare Int32s,
// sixteen unrelated counters share a line and every atomic op invalidates
// all of them.
type PaddedInt32 struct {
	V atomic.Int32
	_ [60]byte
}

// SpinUntilNonZero busy-waits until the flag becomes non-zero — the
// ready-flag counterpart of SpinUntilZeroGuarded used by gather-form
// sync-free kernels, with the same inlinable already-set fast path.
//
//sptrsv:hotpath
func SpinUntilNonZero(c *atomic.Int32) {
	if c.Load() != 0 {
		return
	}
	spinUntilNonZeroSlow(c)
}

//sptrsv:hotpath
func spinUntilNonZeroSlow(c *atomic.Int32) {
	for spins := 0; ; spins++ {
		if c.Load() != 0 {
			return
		}
		if spins&63 == 63 {
			runtime.Gosched()
		}
	}
}
