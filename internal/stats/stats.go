// Package stats holds the small median-comparison toolkit of the online plan
// autotuner (internal/autotune, its only consumer): sample medians, the
// normal-approximation standard error of a median, and the 95%-confidence
// test on a median difference — "did this measured distribution get faster
// than that one, beyond noise?".
package stats

import (
	"math"
	"sort"
)

// CIZ is the two-sided 95% normal quantile used for median-difference
// confidence intervals.
const CIZ = 1.96

// Median returns the middle of the sorted samples (mean of the middle two
// for even counts). It panics on empty input; callers only pass non-empty
// sample sets.
func Median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// SEMedian estimates the standard error of the median under the normal
// approximation, ≈1.2533·σ/√n with σ the sample standard deviation. With
// fewer than two samples there is no variance estimate and it returns 0 —
// the confidence interval collapses to a point and any gate built on it
// degenerates to a plain median comparison.
func SEMedian(samples []float64) float64 {
	n := len(samples)
	if n < 2 {
		return 0
	}
	mean := 0.0
	for _, v := range samples {
		mean += v
	}
	mean /= float64(n)
	ss := 0.0
	for _, v := range samples {
		ss += (v - mean) * (v - mean)
	}
	sigma := math.Sqrt(ss / float64(n-1))
	return 1.2533 * sigma / math.Sqrt(float64(n))
}

// Diff is an oriented median difference with its standard error: Diff > 0
// means the first sample set's median exceeds the second's, and SE is the
// quadrature sum of both medians' standard errors.
type Diff struct {
	Diff float64
	SE   float64
}

// MedianDiff returns Median(a) − Median(b) with the combined standard
// error. Both sample sets must be non-empty.
func MedianDiff(a, b []float64) Diff {
	return Diff{
		Diff: Median(a) - Median(b),
		SE:   math.Hypot(SEMedian(a), SEMedian(b)),
	}
}

// ExcludesZero reports whether the 95% confidence interval of the oriented
// difference lies entirely above zero — the evidence bar a measured
// improvement (or regression, depending on the caller's orientation) must
// clear. With no variance estimate (single samples on both sides) it
// reduces to Diff > 0.
func (d Diff) ExcludesZero() bool {
	return d.Diff-CIZ*d.SE > 0
}
