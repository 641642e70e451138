package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the two closest ranks. xs need not be sorted and is
// not modified; an empty sample yields NaN so a missing measurement can never
// pass for a number.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// fastest is the mean of the n largest of xs (of all of them when there are
// fewer): the rate of the rounds a shared host disturbed least.
func fastest(xs []float64, n int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n = max(1, min(n, len(s)))
	return sum(s[len(s)-n:]) / float64(n)
}

// fastQuartile is the mean of the largest quarter of xs (at least one value).
func fastQuartile(xs []float64) float64 {
	return fastest(xs, int(math.Round(float64(len(xs))/4)))
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// worsening is how far b is worse than a as a share of a, signed so that a
// positive value always means "worse": for a higher-is-better metric a drop
// counts, for a lower-is-better metric a rise.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		return -d
	}
	return d
}
