package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileKnownDistributions(t *testing.T) {
	// 1..100: interpolated ranks are known in closed form.
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 50.5}, {0.9, 90.1}, {0.99, 99.01}, {1, 100},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty sample: got %v, want NaN", got)
	}
	// A two-point distribution: 90 fast ops and 10 slow ones. p50 must sit
	// on the fast mode, p99 on the slow one.
	var bimodal []float64
	for i := 0; i < 90; i++ {
		bimodal = append(bimodal, 1)
	}
	for i := 0; i < 10; i++ {
		bimodal = append(bimodal, 100)
	}
	if p50, p99 := percentile(bimodal, 0.5), percentile(bimodal, 0.99); p50 != 1 || p99 != 100 {
		t.Errorf("bimodal: p50=%v p99=%v", p50, p99)
	}
}

func TestMedianDoesNotReorderItsInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6}
	if got := median(xs); got != 3.5 {
		t.Errorf("median = %v, want 3.5", got)
	}
	if xs[0] != 5 || xs[5] != 6 {
		t.Errorf("median sorted its argument in place: %v", xs)
	}
}

// The reference values are statistics.quantiles(xs, n=4) from CPython.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{2, 4, 4, 5, 7, 9, 10, 12, 15, 30}, 4, 12.75},
		{[]float64{1, 3}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {100, 0.9, true}, {36, 0.9, false}, {10, 0.5, false}, {20, 0.5, true},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v", c.n, c.q, got)
		}
	}
}
