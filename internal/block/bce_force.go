//go:build bcecheck

package block

// Compiled only under the bcecheck build tag: forces instantiation of the
// generic hot-path solve driver so the compiler audit (`sptrsvlint
// -compiler`) sees its bodies (see internal/kernels/bce_force.go).
var bceForceInstantiations = [...]any{
	(*Solver[float64]).Solve, (*Solver[float32]).Solve,
	(*Solver[float64]).solveTri, (*Solver[float32]).solveTri,
	(*Session[float64]).Solve, (*Session[float32]).Solve,
	(*Session[float64]).run, (*Session[float32]).run,
	stateFor[float64], stateFor[float32],
	permuteRowsInto[float64], permuteRowsInto[float32],
	unpermuteRowsInto[float64], unpermuteRowsInto[float32],
}
