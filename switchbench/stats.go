package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks, the same rule as numpy's default
// and Python's statistics.quantiles(method="inclusive"). xs is sorted in
// place. An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is percentile 50 of a copy of xs (xs keeps its order).
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// iqm is the interquartile mean of xs: the mean of its middle half once
// sorted (all of it below four values). Like a median it ignores the few
// rounds a host stall throws out, but it moves smoothly with the share of
// rounds the host ran slow, where a median of a two-mode sample jumps
// from one mode to the other. xs keeps its order.
func iqm(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	return mean(mid)
}

// mean is the arithmetic mean of xs (0 for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, defined as 0 when den is 0 so absent work reads as
// no share rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// nanosToFloats converts a duration sample (ns) to float64 in the given
// unit divisor (1e3 → µs, 1e6 → ms).
func nanosToFloats(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	return out
}
