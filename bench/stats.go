package main

import (
	"math"
	"sort"
)

// The bench keeps its own order statistics rather than borrowing
// internal/stats: the instrument must not change when the code it measures
// does.

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks — the same definition as numpy's
// default, so p50 of an even-length sample is the mean of the middle two.
// sorted must be ascending; an empty sample yields NaN.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo, hi = 0, 0
	}
	if hi >= n {
		lo, hi = n-1, n-1
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// median sorts a copy of xs and returns its 0.5-quantile.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so
// the spreads bench prints are the ones the driver computes. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of xs as a share of its median: the
// run-to-run noise figure the bounds in BENCHMARK.json are checked against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailSupported reports whether quantile q of an n-sample distribution has
// at least ten samples beyond it — the choosing-metrics rule for the highest
// percentile a sample can support.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9 // 100·(1−0.9) is 9.999… in floating point
}
