package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is not modified; an empty sample gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 0) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// geomean is the geometric mean: the aggregate over matrices of very
// different sizes in which each matrix weighs the same.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// windowSeconds is the length of the measurement windows a run is cut
// into. Short windows keep each stretch of library calls within half a
// second of its reference; with 2-second windows the library ratios
// spread up to twice as much across runs.
const windowSeconds = 0.5

// windows is how many measurement windows a run of the given length has.
func windows(seconds float64) int { return max(1, int(math.Round(seconds/windowSeconds))) }

// quietest returns the indices of the half of the windows, rounded up, in
// which the reference took least time: the windows least disturbed by
// other work on the host.
func quietest(ref []float64) []int {
	idx := make([]int, len(ref))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ref[idx[a]] < ref[idx[b]] })
	return idx[:(len(idx)+1)/2]
}
