package obs

import (
	"math"
	"testing"
)

func TestSeriesPushAndValues(t *testing.T) {
	s := newSeries("x", nil, "x", 4)
	if s.Len() != 0 {
		t.Fatalf("fresh series Len = %d, want 0", s.Len())
	}
	for i := 1; i <= 3; i++ {
		s.push(float64(i))
	}
	got := s.Values(nil)
	want := []float64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Values = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v, want %v", got, want)
		}
	}
}

func TestSeriesRingWraparound(t *testing.T) {
	s := newSeries("x", nil, "x", 4)
	for i := 1; i <= 10; i++ {
		s.push(float64(i))
	}
	if s.Len() != 4 {
		t.Fatalf("Len after wrap = %d, want 4", s.Len())
	}
	got := s.Values(nil)
	want := []float64{7, 8, 9, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values after wrap = %v, want %v (oldest first)", got, want)
		}
	}
	// Values must append onto dst, not replace it.
	got = s.Values([]float64{-1})
	if len(got) != 5 || got[0] != -1 || got[1] != 7 {
		t.Fatalf("Values with prefix = %v", got)
	}
}

func TestSeriesNilSafe(t *testing.T) {
	var s *Series
	if s.Len() != 0 {
		t.Fatal("nil series Len != 0")
	}
	if got := s.Values([]float64{1}); len(got) != 1 {
		t.Fatalf("nil series Values = %v", got)
	}
}

func TestSeriesKeyAndLabels(t *testing.T) {
	pairs := []labelPair{{"replica", "1"}, {"shard", "0"}}
	s := newSeries("m", pairs, `m{replica="1",shard="0"}`, 4)
	if s.Key() != `m{replica="1",shard="0"}` {
		t.Fatalf("Key = %q", s.Key())
	}
	if s.Name() != "m" {
		t.Fatalf("Name = %q", s.Name())
	}
	if s.Label("shard") != "0" || s.Label("replica") != "1" || s.Label("zone") != "" {
		t.Fatal("Label lookup wrong")
	}
}

// TestQuarterMediansMatchesOldSoakWindows pins the window cuts against the
// nomad soak's original hand-rolled quartile logic (q = n/4; windows
// [0:q+1], [q:2q+1], [2q:3q+1], [n-q-1:n]; upper median).
func TestQuarterMediansMatchesOldSoakWindows(t *testing.T) {
	samples := []float64{5, 1, 9, 3, 8, 2, 7, 4, 6, 10, 12, 11}
	n := len(samples)
	q := n / 4
	oldMedian := func(window []float64) float64 {
		vs := append([]float64(nil), window...)
		for i := 1; i < len(vs); i++ { // insertion sort, to stay independent of median()
			for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
				vs[j], vs[j-1] = vs[j-1], vs[j]
			}
		}
		return vs[len(vs)/2]
	}
	want := [4]float64{
		oldMedian(samples[:q+1]),
		oldMedian(samples[q : 2*q+1]),
		oldMedian(samples[2*q : 3*q+1]),
		oldMedian(samples[n-q-1:]),
	}
	if got := QuarterMedians(samples); got != want {
		t.Fatalf("QuarterMedians = %v, want %v", got, want)
	}
}

func TestQuarterMediansShortSeries(t *testing.T) {
	if got := QuarterMedians(nil); got != [4]float64{} {
		t.Fatalf("QuarterMedians(nil) = %v, want zeros", got)
	}
	// n < 4 ⇒ q = 0: every window is a prefix/suffix around the same data.
	got := QuarterMedians([]float64{7})
	if got != [4]float64{7, 7, 7, 7} {
		t.Fatalf("QuarterMedians([7]) = %v", got)
	}
	got = QuarterMedians([]float64{3, 9})
	for i, v := range got {
		if math.IsNaN(v) {
			t.Fatalf("quarter %d is NaN for 2-sample input", i)
		}
	}
}

func TestQuarterMediansAllEqual(t *testing.T) {
	samples := make([]float64, 40)
	for i := range samples {
		samples[i] = 42
	}
	if got := QuarterMedians(samples); got != [4]float64{42, 42, 42, 42} {
		t.Fatalf("QuarterMedians(const) = %v", got)
	}
}

// Key returns the series' exposition identity: name{labels} (braces only
// when labels are present), e.g. `locind_nomad_engine_queue_entries` or
// `locind_nomad_engine_queue_entries{shard="3"}`.
func (s *Series) Key() string { return s.key }

// Name returns the metric family name.
func (s *Series) Name() string { return s.name }

// Len returns how many samples the ring currently retains.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.buf)
}
