package sparse

import "math"

// BackwardError returns the Oettli–Prager componentwise backward error of
// each of the k columns of x as a solution of m·x = b:
//
//	max_i |b − m·x|_i / (|m|·|x| + |b|)_i
//
// It is the smallest relative perturbation of the entries of m and b for
// which that column of x is exact (Higham, Accuracy and Stability of
// Numerical Algorithms, Thm. 7.3). It does not depend on the conditioning
// of m, and triangular substitution in any summation order keeps it near
// the unit roundoff times the longest row (ibid., ch. 8), so one
// tolerance serves every size. x and b are row-major n×k blocks: column
// j of row i sits at [i*k+j]; k = 1 is a single vector. The residual
// accumulates in float64 for both element types. A row whose residual is
// zero contributes 0, a nonzero residual over a zero scale is +Inf, and a
// NaN makes its column's error +Inf.
func BackwardError[T Float](m *CSR[T], x, b []T, k int) []float64 {
	worst := make([]float64, k)
	r := make([]float64, k)
	s := make([]float64, k)
	for i := 0; i < m.Rows; i++ {
		for j, v := range b[i*k : (i+1)*k] {
			r[j] = float64(v)
			s[j] = math.Abs(float64(v))
		}
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			v := float64(m.Val[p])
			for j, xv := range x[m.ColIdx[p]*k : (m.ColIdx[p]+1)*k] {
				t := v * float64(xv)
				r[j] -= t
				s[j] += math.Abs(t)
			}
		}
		for j := range worst {
			if r[j] == 0 {
				continue
			}
			e := math.Abs(r[j]) / s[j]
			if math.IsNaN(e) {
				e = math.Inf(1)
			}
			worst[j] = max(worst[j], e)
		}
	}
	return worst
}
