package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks. xs is not modified; an empty slice yields NaN, which
// the result checks reject.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if s[hi] == s[lo] {
		return s[lo] // also keeps +Inf samples from making NaN
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// lowest returns the smallest value of xs that is not NaN; NaN if none is.
func lowest(xs []float64) float64 {
	best := math.NaN()
	for _, x := range xs {
		if !math.IsNaN(x) && (math.IsNaN(best) || x < best) {
			best = x
		}
	}
	return best
}

// highest returns the largest value of xs that is not NaN; NaN if none is.
func highest(xs []float64) float64 {
	best := math.NaN()
	for _, x := range xs {
		if !math.IsNaN(x) && (math.IsNaN(best) || x > best) {
			best = x
		}
	}
	return best
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
