// Package stats provides the small set of statistics used throughout the
// evaluation: empirical CDFs, quantiles, moments, Pearson correlation, and
// fixed-width text rendering of distributions for experiment output.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, not n-1),
// or 0 for an empty slice.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += float64(d * d) // rounded before the add: no fused multiply-add on any target
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Pearson returns the Pearson correlation coefficient of paired samples. It
// returns an error if the slices differ in length, are empty, or either has
// zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		// Each product is rounded before the add, as in Variance.
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. The input slice is copied.
func NewCDF(xs []float64) *CDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x), the fraction of samples not exceeding x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with sorted[i] > x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (q in [0,1]) using the nearest-rank
// method, matching how one reads values off the paper's CDF plots.
func (c *CDF) Quantile(q float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[n-1]
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return c.sorted[i]
}

// Median returns the 0.5 quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Min and Max return the sample extrema (NaN when empty).
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[0]
}

// Max returns the largest sample (NaN when empty).
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[len(c.sorted)-1]
}

// Points returns up to n evenly spaced (x, P(X<=x)) pairs suitable for
// plotting or tabulating the CDF.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	out := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := (i + 1) * len(c.sorted) / n
		if idx > len(c.sorted) {
			idx = len(c.sorted)
		}
		x := c.sorted[idx-1]
		out = append(out, Point{X: x, Y: float64(idx) / float64(len(c.sorted))})
	}
	return out
}

// Point is a single (x, y) sample of a distribution curve.
type Point struct{ X, Y float64 }

// Bar renders a fixed-width ASCII bar for value v on a [0, max] scale, used
// for the per-router bar charts (Figures 8, 11b, 11c, 12).
func Bar(v, max float64, width int) string {
	if max <= 0 || width <= 0 {
		return ""
	}
	n := int(math.Round(v / max * float64(width)))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// Summary holds the standard five-number-plus-moments description of a
// sample, used when recording paper-vs-measured comparisons.
type Summary struct {
	N             int
	Min, Max      float64
	Mean, StdDev  float64
	P25, P50, P75 float64
	P90, P95, P99 float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	c := NewCDF(xs)
	return Summary{
		N:      len(xs),
		Min:    c.Min(),
		Max:    c.Max(),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		P25:    c.Quantile(0.25),
		P50:    c.Quantile(0.50),
		P75:    c.Quantile(0.75),
		P90:    c.Quantile(0.90),
		P95:    c.Quantile(0.95),
		P99:    c.Quantile(0.99),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g p50=%.4g mean=%.4g p90=%.4g max=%.4g sd=%.4g",
		s.N, s.Min, s.P50, s.Mean, s.P90, s.Max, s.StdDev)
}
