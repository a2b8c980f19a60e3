package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
	if sd := StdDev(xs); sd != 2 {
		t.Errorf("StdDev = %v, want 2", sd)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty-slice moments should be 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil || lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v %v %v", lo, hi, err)
	}
	if c := NewCDF([]float64{3, -1, 7, 0}); c.Min() != lo || c.Max() != hi {
		t.Errorf("CDF Min/Max = %v %v, the linear scan says %v %v", c.Min(), c.Max(), lo, hi)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Error("MinMax(nil) should return ErrEmpty")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || !almostEq(r, 1, 1e-12) {
		t.Errorf("Pearson = %v %v, want 1", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEq(r, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Pearson(nil, nil); err == nil {
		t.Error("empty should error")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero variance should error")
	}
}

func TestPearsonUncorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 20000)
	ys := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64()
	}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.05 {
		t.Errorf("independent normals correlate at %v", r)
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if len(c.sorted) != 4 {
		t.Errorf("N = %d", len(c.sorted))
	}
	if got := c.At(2); got != 0.5 {
		t.Errorf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(0.5); got != 0 {
		t.Errorf("At(0.5) = %v, want 0", got)
	}
	if got := c.At(4); got != 1 {
		t.Errorf("At(4) = %v, want 1", got)
	}
	if c.Median() != 2 {
		t.Errorf("Median = %v, want 2 (nearest rank)", c.Median())
	}
	if c.Min() != 1 || c.Max() != 4 {
		t.Errorf("Min/Max = %v/%v", c.Min(), c.Max())
	}
}

func TestCDFQuantileEdges(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30})
	if c.Quantile(0) != 10 || c.Quantile(1) != 30 {
		t.Errorf("edge quantiles wrong: %v %v", c.Quantile(0), c.Quantile(1))
	}
	if !math.IsNaN(NewCDF(nil).Quantile(0.5)) {
		t.Error("empty CDF quantile should be NaN")
	}
	if !math.IsNaN(NewCDF(nil).Min()) || !math.IsNaN(NewCDF(nil).Max()) {
		t.Error("empty CDF extrema should be NaN")
	}
	if NewCDF(nil).At(1) != 0 {
		t.Error("empty CDF At should be 0")
	}
}

// Quantile and At must be approximate inverses on any sample.
func TestCDFQuantileAtInverse(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.9} {
			x := c.Quantile(q)
			// At(Quantile(q)) must cover at least q of the mass.
			if c.At(x) < q-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFPoints(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	c := NewCDF(xs)
	pts := c.Points(10)
	if len(pts) != 10 {
		t.Fatalf("Points len = %d", len(pts))
	}
	if pts[len(pts)-1].Y != 1 {
		t.Errorf("last point Y = %v, want 1", pts[len(pts)-1].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y <= pts[i-1].Y {
			t.Fatalf("points not monotone at %d: %+v", i, pts)
		}
	}
	if NewCDF(nil).Points(5) != nil {
		t.Error("empty Points should be nil")
	}
}

func TestBar(t *testing.T) {
	if b := Bar(5, 10, 10); b != "#####....." {
		t.Errorf("Bar = %q", b)
	}
	if b := Bar(20, 10, 4); b != "####" {
		t.Errorf("over-max Bar = %q", b)
	}
	if b := Bar(-1, 10, 4); b != "...." {
		t.Errorf("negative Bar = %q", b)
	}
	if Bar(1, 0, 4) != "" {
		t.Error("zero max should give empty bar")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	s := Summarize(xs)
	if s.N != 100 || s.Min != 1 || s.Max != 100 {
		t.Errorf("Summary basics wrong: %+v", s)
	}
	if s.P50 != 50 || s.P90 != 90 || s.P99 != 99 {
		t.Errorf("Summary quantiles wrong: %+v", s)
	}
	if s.String() == "" {
		t.Error("String should be non-empty")
	}
}

// MinMax is the linear scan TestMinMax holds CDF.Min and CDF.Max to.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}
