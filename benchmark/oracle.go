package main

import (
	"math"

	sptrsv "github.com/sss-lab/blocksptrsv"
)

// tolerance is the largest componentwise backward error an answer may
// have. Correct solves of the benchmark matrices measure 1e-16 to 1e-15.
const tolerance = 1e-12

// sampleEvery makes every 16th call of a stream a checked one, besides the
// stream's first and last.
const sampleEvery = 16

// backwardError is the Oettli–Prager componentwise backward error
//
//	max_i |b − L·x|_i / (|L|·|x| + |b|)_i
//
// of x as a solution of L·x = b: the smallest relative perturbation of
// the entries of L and b for which x is exact. It does not grow with n,
// so one tolerance serves every matrix size. x and b are row-major n×k
// blocks and column j is checked; k = 1, j = 0 checks a single vector.
// A NaN anywhere makes the error +Inf.
func backwardError(l *sptrsv.Matrix[float64], x, b []float64, k, j int) float64 {
	worst := 0.0
	for i := 0; i < l.Rows; i++ {
		bi := b[i*k+j]
		r, s := bi, math.Abs(bi)
		for p := l.RowPtr[i]; p < l.RowPtr[i+1]; p++ {
			v := l.Val[p] * x[l.ColIdx[p]*k+j]
			r -= v
			s += math.Abs(v)
		}
		var e float64
		switch {
		case math.IsNaN(r) || math.IsNaN(s):
			return math.Inf(1)
		case s == 0 && r == 0:
			continue
		default:
			e = math.Abs(r) / s
		}
		if e > worst {
			worst = e
		}
	}
	return worst
}

// acceptBlock reports whether every one of the k columns of x passes the
// oracle.
func acceptBlock(l *sptrsv.Matrix[float64], x, b []float64, k int) bool {
	for j := 0; j < k; j++ {
		if !(backwardError(l, x, b, k, j) <= tolerance) {
			return false
		}
	}
	return true
}
