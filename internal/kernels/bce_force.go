//go:build bcecheck

package kernels

import (
	"github.com/sss-lab/blocksptrsv/internal/exec"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
)

// This file is compiled only under the bcecheck build tag, which the
// compiler audit (`sptrsvlint -compiler`) builds with. Referencing every
// generic hot-path kernel at both element types forces the compiler to
// instantiate their bodies in this package, so the audit reports their
// bounds checks, inlining verdicts and escapes. Without these references
// the generic bodies are never compiled here and the gates would
// silently check nothing.
var bceForceInstantiations = [...]any{
	TriSerialSolve[float64], TriSerialSolve[float32],
	TriDiagOnlySolve[float64], TriDiagOnlySolve[float32],
	TriLevelSetSolve[float64], TriLevelSetSolve[float32],
	TriSyncFreeSolve[float64], TriSyncFreeSolve[float32],
	TriCuSparseLikeSolve[float64], TriCuSparseLikeSolve[float32],
	(*SyncFreeCSRSolver[float64]).Solve, (*SyncFreeCSRSolver[float32]).Solve,
	NewSyncFreeState[float64], NewSyncFreeState[float32],

	SpMVSerialSub[float64], SpMVSerialSub[float32],
	SpMVScalarCSRSub[float64], SpMVScalarCSRSub[float32],
	SpMVVectorCSRSub[float64], SpMVVectorCSRSub[float32],
	SpMVScalarDCSRSub[float64], SpMVScalarDCSRSub[float32],
	SpMVVectorDCSRSub[float64], SpMVVectorDCSRSub[float32],
	Multiply[float64], Multiply[float32],
	RunSpMV[float64], RunSpMV[float32],

	TriSerialSolveBatch[float64], TriSerialSolveBatch[float32],
	SerialSolveCSRBatch[float64], SerialSolveCSRBatch[float32],
	TriDiagOnlySolveBatch[float64], TriDiagOnlySolveBatch[float32],
	TriLevelSetSolveBatch[float64], TriLevelSetSolveBatch[float32],
	TriSyncFreeSolveBatch[float64], TriSyncFreeSolveBatch[float32],
	TriCuSparseLikeSolveBatch[float64], TriCuSparseLikeSolveBatch[float32],
	SpMVScalarCSRSubBatch[float64], SpMVScalarCSRSubBatch[float32],
	SpMVVectorCSRSubBatch[float64], SpMVVectorCSRSubBatch[float32],
	SpMVScalarDCSRSubBatch[float64], SpMVScalarDCSRSubBatch[float32],
	SpMVVectorDCSRSubBatch[float64], SpMVVectorDCSRSubBatch[float32],
	SpMVSerialSubBatch[float64], SpMVSerialSubBatch[float32],
	RunSpMVBatch[float64], RunSpMVBatch[float32],
	scaleInto[float64], scaleInto[float32],

	SerialSolveCSR[float64], SerialSolveCSR[float32],
	SerialSolveCSROrdered[float64], SerialSolveCSROrdered[float32],
	(*SerialSolver[float64]).Solve, (*SerialSolver[float32]).Solve,
	(*LevelSetSolver[float64]).Solve, (*LevelSetSolver[float32]).Solve,
	(*SyncFreeSolver[float64]).Solve, (*SyncFreeSolver[float32]).Solve,
	(*CuSparseLikeSolver[float64]).Solve, (*CuSparseLikeSolver[float32]).Solve,

	exec.AtomicAddFloat[float64], exec.AtomicAddFloat[float32],
	sparse.PermuteVecInto[float64], sparse.PermuteVecInto[float32],
}
