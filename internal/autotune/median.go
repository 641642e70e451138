package autotune

// The median-comparison toolkit of the tuner's verdicts: sample medians, the
// normal-approximation standard error of a median, and the 95%-confidence
// test on a median difference — "did this measured distribution get faster
// than that one, beyond noise?".

import (
	"math"
	"sort"
)

// ciZ is the two-sided 95% normal quantile used for median-difference
// confidence intervals.
const ciZ = 1.96

// median returns the middle of the sorted samples (mean of the middle two
// for even counts). It panics on empty input; callers only pass non-empty
// sample sets.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// seMedian estimates the standard error of the median under the normal
// approximation, ≈1.2533·σ/√n with σ the sample standard deviation. With
// fewer than two samples there is no variance estimate and it returns 0 —
// the confidence interval collapses to a point and any gate built on it
// degenerates to a plain median comparison.
func seMedian(samples []float64) float64 {
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

// diff is an oriented median difference with its standard error: diff > 0
// means the first sample set's median exceeds the second's, and se is the
// quadrature sum of both medians' standard errors.
type diff struct {
	diff float64
	se   float64
}

// medianDiff returns median(a) − median(b) with the combined standard
// error. Both sample sets must be non-empty.
func medianDiff(a, b []float64) diff {
	return diff{
		diff: median(a) - median(b),
		se:   math.Hypot(seMedian(a), seMedian(b)),
	}
}

// excludesZero reports whether the 95% confidence interval of the oriented
// difference lies entirely above zero — the evidence bar a measured
// improvement (or regression, depending on the caller's orientation) must
// clear. With no variance estimate (single samples on both sides) it
// reduces to diff > 0.
func (d diff) excludesZero() bool {
	return d.diff-ciZ*d.se > 0
}
