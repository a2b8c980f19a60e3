package obs

import (
	"math"
	"testing"
)

func TestQuantileUniformDistribution(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	h := r.Histogram("u", "", bounds)
	// 10k observations uniform on (0, 1]: quantile q should sit near q.
	for i := 1; i <= 10000; i++ {
		h.Observe(float64(i) / 10000)
	}
	for _, q := range []float64{0.10, 0.50, 0.95, 0.99} {
		got := h.Quantile(q)
		if math.Abs(got-q) > 0.02 {
			t.Fatalf("uniform: Quantile(%g) = %g, want ~%g", q, got, q)
		}
	}
}

func TestQuantileExponentialDistribution(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("e", "", DefBuckets)
	// Deterministic Exp(λ=100) via inverse CDF over an evenly spaced grid:
	// x = -ln(1-u)/λ, mean 10ms. True quantiles: p50 ≈ 6.93ms, p95 ≈ 30ms,
	// p99 ≈ 46ms.
	const n = 20000
	for i := 0; i < n; i++ {
		u := (float64(i) + 0.5) / n
		h.Observe(-math.Log(1-u) / 100)
	}
	// Tolerances reflect DefBuckets resolution: the estimator assumes a
	// uniform spread inside each bucket, which overestimates an exponential
	// tail slightly.
	cases := []struct{ q, want, tol float64 }{
		{0.50, math.Ln2 / 100, 0.002},
		{0.95, math.Log(20) / 100, 0.010},
		{0.99, math.Log(100) / 100, 0.010},
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		if math.Abs(got-c.want) > c.tol {
			t.Fatalf("exp: Quantile(%g) = %g, want %g ± %g", c.q, got, c.want, c.tol)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram Quantile != 0")
	}
	r := NewRegistry()
	h := r.Histogram("x", "", []float64{1, 2, 4})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram Quantile != 0")
	}
	h.Observe(1.5)
	// One observation in (1,2]: every quantile interpolates inside that bucket.
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got < 1 || got > 2 {
			t.Fatalf("single-obs Quantile(%g) = %g, want in [1,2]", q, got)
		}
	}
	// Out-of-range q clamps instead of exploding.
	if got := h.Quantile(-3); got < 1 || got > 2 {
		t.Fatalf("Quantile(-3) = %g", got)
	}
	if got := h.Quantile(7); got < 1 || got > 2 {
		t.Fatalf("Quantile(7) = %g", got)
	}
	if !math.IsNaN(h.Quantile(math.NaN())) {
		t.Fatal("Quantile(NaN) must be NaN")
	}
	// Observation above every bound lands in the implicit +Inf bucket and
	// high quantiles clamp to the top finite bound.
	h.Observe(100)
	if got := h.Quantile(0.99); got != 4 {
		t.Fatalf("+Inf-bucket quantile = %g, want clamp to 4", got)
	}
}

func TestQuantileFromCumMatchesQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("m", "", []float64{1, 2, 3, 5, 8})
	for _, v := range []float64{0.5, 1.5, 1.7, 2.2, 4, 4.5, 7, 9} {
		h.Observe(v)
	}
	cum := make([]int64, len(h.bounds))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		a := quantileFromCum(h.bounds, cum, h.Count(), q)
		b := h.Quantile(q)
		if a != b {
			t.Fatalf("quantileFromCum(%g) = %g but Quantile = %g", q, a, b)
		}
	}
}

// Quantile estimates the q-th quantile (0..1) of the observed distribution
// by linear interpolation within the histogram's buckets — the same
// estimator Prometheus's histogram_quantile applies server-side, computed
// in-process. Returns 0 with no observations or on a nil receiver; NaN q
// returns NaN. Accuracy is bounded by bucket resolution: the estimate is
// exact only when observations are uniform within each bucket, so tests
// assert against known distributions with tolerance, not equality.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	if math.IsNaN(q) {
		return math.NaN()
	}
	cum := make([]int64, len(h.bounds))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return quantileFromCum(h.bounds, cum, h.Count(), q)
}
