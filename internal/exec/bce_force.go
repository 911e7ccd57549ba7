//go:build bcecheck

package exec

// Compiled only under the bcecheck build tag: forces instantiation of the
// generic hot-path atomic helpers so the compiler audit (`sptrsvlint -compiler`)
// sees their bodies (see internal/kernels/bce_force.go).
var bceForceInstantiations = [...]any{
	AtomicAddFloat[float64], AtomicAddFloat[float32],
	AtomicLoadFloat[float64], AtomicLoadFloat[float32],
	AtomicStoreFloat[float64], AtomicStoreFloat[float32],
	AtomicMaxFloat[float64], AtomicMaxFloat[float32],
}
