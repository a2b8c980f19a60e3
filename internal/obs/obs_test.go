package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNilHandlesAreSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if b.Len() != 0 {
		t.Fatalf("nil registry exposition = %q", b.String())
	}
	if len(snapshotInts(r)) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestCounterGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters only go up
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
	// Re-registering the same identity returns the same handle.
	if r.Counter("ops_total", "ops") != c {
		t.Fatal("re-registration must return the existing counter")
	}
	if r.Counter("ops_total", "ops", "k", "v") == c {
		t.Fatal("different label set must be a different series")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 56.05 {
		t.Fatalf("sum = %v", got)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusExpositionShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last family").Inc()
	r.Counter("aa_total", "first family", "kind", "x").Add(2)
	r.Counter("aa_total", "first family", "kind", "a").Add(1)
	r.Gauge("mid", "a gauge").Set(-4)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	want := `# HELP aa_total first family
# TYPE aa_total counter
aa_total{kind="a"} 1
aa_total{kind="x"} 2
# HELP mid a gauge
# TYPE mid gauge
mid -4
# HELP zz_total last family
# TYPE zz_total counter
zz_total 1
`
	if out != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", out, want)
	}
	// Two scrapes of an idle registry are byte-identical.
	var b2 strings.Builder
	r.WritePrometheus(&b2)
	if b2.String() != out {
		t.Fatal("idle registry scrapes diverged")
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m_total", "", "b", "2", "a", "1")
	b := r.Counter("m_total", "", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order must not create distinct series")
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9leading", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q must panic", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h_seconds", "", []float64{1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: counter %d, histogram %d", c.Value(), h.Count())
	}
	if h.Sum() != 4000 {
		t.Fatalf("histogram sum = %v", h.Sum())
	}
}
