package obs

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestFlatnessVacuousUnderFourSamples(t *testing.T) {
	f := Flatness{EarlyQuarter: 2, LateQuarter: 3}
	for n := 0; n < 4; n++ {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = float64(1 << 30) // huge values must not matter
		}
		ok, detail := f.Eval(samples)
		if !ok {
			t.Fatalf("n=%d: want vacuous pass, got fail (%s)", n, detail)
		}
		if !strings.Contains(detail, "insufficient samples") {
			t.Fatalf("n=%d: detail = %q", n, detail)
		}
	}
}

func TestFlatnessAllEqualPasses(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = 123456
	}
	f := Flatness{EarlyQuarter: 2, LateQuarter: 3}
	if ok, detail := f.Eval(samples); !ok {
		t.Fatalf("all-equal series must be flat: %s", detail)
	}
}

func TestFlatnessCatchesGrowth(t *testing.T) {
	// Linear growth: Q4 median far above Q3 median, beyond 25% + 0 slack.
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i) * 1000
	}
	f := Flatness{EarlyQuarter: 2, LateQuarter: 3, RelSlack: 0.25}
	if ok, _ := f.Eval(samples); ok {
		t.Fatal("linear growth must fail flatness")
	}
	// The same shape passes with enough absolute slack.
	f.AbsSlack = 1e9
	if ok, detail := f.Eval(samples); !ok {
		t.Fatalf("huge AbsSlack must absorb growth: %s", detail)
	}
}

func TestFlatnessPlateauPasses(t *testing.T) {
	// Ramp for the first half, plateau after — comparing Q3 vs Q4 must pass.
	samples := make([]float64, 200)
	for i := range samples {
		if i < 100 {
			samples[i] = float64(i)
		} else {
			samples[i] = 100
		}
	}
	f := Flatness{EarlyQuarter: 2, LateQuarter: 3, RelSlack: 0.25}
	if ok, detail := f.Eval(samples); !ok {
		t.Fatalf("ramp-then-plateau must pass Q3-vs-Q4 flatness: %s", detail)
	}
}

func TestChecksFailOnNonFinite(t *testing.T) {
	checks := []SeriesCheck{
		Flatness{EarlyQuarter: 2, LateQuarter: 3},
		MonotoneNonDecreasing{},
		Bounded{Min: -1e18, Max: 1e18},
		MaxRate{PerSample: 1e18},
	}
	bad := [][]float64{
		{1, 2, math.NaN(), 4, 5},
		{1, 2, math.Inf(1), 4, 5},
		{1, 2, math.Inf(-1), 4, 5},
	}
	for _, c := range checks {
		for _, samples := range bad {
			ok, detail := c.Eval(samples)
			if ok {
				t.Fatalf("%s: non-finite samples must fail", c.Kind())
			}
			if !strings.Contains(detail, "index 2") {
				t.Fatalf("%s: detail should name the bad index, got %q", c.Kind(), detail)
			}
		}
	}
}

func TestMonotoneNonDecreasing(t *testing.T) {
	m := MonotoneNonDecreasing{}
	if ok, _ := m.Eval([]float64{1, 1, 2, 2, 3}); !ok {
		t.Fatal("nondecreasing series must pass")
	}
	if ok, _ := m.Eval(nil); !ok {
		t.Fatal("empty series must pass")
	}
	ok, detail := m.Eval([]float64{1, 2, 1})
	if ok {
		t.Fatal("decrease must fail")
	}
	if !strings.Contains(detail, "index 2") {
		t.Fatalf("detail = %q", detail)
	}
}

func TestBounded(t *testing.T) {
	b := Bounded{Min: 0, Max: 10}
	if ok, _ := b.Eval([]float64{0, 5, 10}); !ok {
		t.Fatal("in-range series must pass")
	}
	if ok, _ := b.Eval([]float64{0, 11}); ok {
		t.Fatal("above Max must fail")
	}
	if ok, _ := b.Eval([]float64{-0.5}); ok {
		t.Fatal("below Min must fail")
	}
}

// MaxRate asserts the series never climbs by more than PerSample between
// consecutive samples — a growth-rate ceiling (decreases are always fine).
// No experiment or daemon ever attached one, so it left check.go; it stays
// here, verbatim, as the SeriesCheck a caller writes for itself, held to the
// same non-finite rule as the checks the package ships.
type MaxRate struct {
	PerSample float64
}

// Kind implements SeriesCheck.
func (MaxRate) Kind() string { return "max-rate" }

// Eval implements SeriesCheck.
func (m MaxRate) Eval(samples []float64) (bool, string) {
	if ok, detail := checkFinite(samples); !ok {
		return false, detail
	}
	for i := 1; i < len(samples); i++ {
		if d := samples[i] - samples[i-1]; d > m.PerSample {
			return false, fmt.Sprintf("grew %g at index %d, limit %g per sample", d, i, m.PerSample)
		}
	}
	return true, fmt.Sprintf("max growth within %g per sample", m.PerSample)
}

func TestMaxRate(t *testing.T) {
	m := MaxRate{PerSample: 5}
	if ok, _ := m.Eval([]float64{0, 5, 10, 8, 13}); !ok {
		t.Fatal("growth within limit (and any decrease) must pass")
	}
	if ok, _ := m.Eval([]float64{0, 6}); ok {
		t.Fatal("growth beyond limit must fail")
	}
}
