//go:build bcecheck

package sparse

// Compiled only under the bcecheck build tag: forces instantiation of the
// generic hot-path helpers so the compiler audit (`sptrsvlint -compiler`)
// sees their bodies (see internal/kernels/bce_force.go).
var bceForceInstantiations = [...]any{
	PermuteVecInto[float64], PermuteVecInto[float32],
	UnpermuteVecInto[float64], UnpermuteVecInto[float32],
	PermuteVec[float64], PermuteVec[float32],
	PermuteSym[float64], PermuteSym[float32],
}
