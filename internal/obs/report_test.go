package obs

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestSampleJSONRoundTripsNonFinite(t *testing.T) {
	in := []Sample{1.5, Sample(math.NaN()), Sample(math.Inf(1)), Sample(math.Inf(-1)), -2}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if got, want := string(b), "[1.5,null,null,null,-2]"; got != want {
		t.Fatalf("marshal = %s, want %s", got, want)
	}
	var out []Sample
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out[0] != 1.5 || out[4] != -2 {
		t.Fatalf("round trip = %v", out)
	}
	for i := 1; i <= 3; i++ {
		if !math.IsNaN(float64(out[i])) {
			t.Fatalf("sample %d = %v, want NaN back from null", i, out[i])
		}
	}
}

func TestDumpRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "", "shard", "1")
	g := r.Gauge("depth", "")
	s := NewSampler(r, 16)
	s.Check("depth-ok", "depth", Bounded{Min: 0, Max: 100})
	for i := 0; i < 5; i++ {
		c.Inc()
		g.Set(int64(i))
		s.Tick()
	}
	raw, err := s.Dump().JSON()
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	d, err := ParseDump(raw)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if d.Ticks != 5 || d.IntervalSeconds != 0.2 || len(d.Series) != 2 {
		t.Fatalf("dump = ticks %d interval %g series %d", d.Ticks, d.IntervalSeconds, len(d.Series))
	}
	if d.Series[0].Key != `ops_total{shard="1"}` || d.Series[0].Labels["shard"] != "1" {
		t.Fatalf("series[0] = %+v", d.Series[0])
	}
	if len(d.Series[1].Samples) != 5 || float64(d.Series[1].Samples[4]) != 4 {
		t.Fatalf("gauge samples = %v", d.Series[1].Samples)
	}
	if len(d.Checks) != 1 || !d.Checks[0].OK {
		t.Fatalf("checks = %+v", d.Checks)
	}
	var nilS *Sampler
	if nilS.Dump() != nil {
		t.Fatal("nil sampler Dump must be nil")
	}
}

// lastSample is a check whose detail is the newest sample it judged.
type lastSample struct{}

func (lastSample) Kind() string { return "last" }

func (lastSample) Eval(v []float64) (bool, string) {
	return true, strconv.FormatFloat(v[len(v)-1], 'g', -1, 64)
}

// TestDumpIsOneInstant: a Dump's check verdicts judge the samples its series
// carry, however the sampler's ticks interleave with it — the check and the
// series it is bound to are read under one hold of the lock.
func TestDumpIsOneInstant(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ticks_total", "")
	s := NewSampler(r, 8)
	s.Pre(c.Inc)
	s.Check("last", "ticks_total", lastSample{})
	s.Tick()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				s.Tick()
			}
		}
	}()
	const dumps = 2000
	torn := 0
	for i := 0; i < dumps; i++ {
		d := s.Dump()
		samples := d.Series[0].Samples
		if d.Checks[0].Detail != strconv.FormatFloat(float64(samples[len(samples)-1]), 'g', -1, 64) {
			torn++
		}
	}
	close(stop)
	<-done
	if torn > 0 {
		t.Fatalf("%d of %d dumps judged other samples than they dumped", torn, dumps)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 40); got != "" {
		t.Fatalf("empty sparkline = %q", got)
	}
	got := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 40)
	if got != "▁▂▃▄▅▆▇█" {
		t.Fatalf("ramp sparkline = %q", got)
	}
	// Constant series renders mid-height, not a divide-by-zero.
	got = Sparkline([]float64{5, 5, 5}, 40)
	if len([]rune(got)) != 3 || !strings.HasPrefix(got, string(sparkTicks[4])) {
		t.Fatalf("flat sparkline = %q", got)
	}
	// Non-finite samples become visible gaps.
	got = Sparkline([]float64{0, math.NaN(), 8}, 40)
	if got != "▁·█" {
		t.Fatalf("gap sparkline = %q", got)
	}
	// Longer series downsample to the width budget.
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i)
	}
	if got := Sparkline(long, 10); len([]rune(got)) != 10 {
		t.Fatalf("downsampled width = %d (%q)", len([]rune(got)), got)
	}
}

func TestWriteMarkdown(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("heap_bytes", "", "shard", "0")
	s := NewSampler(r, 32)
	s.Check("heap-flat", `heap_bytes{shard="0"}`, Flatness{EarlyQuarter: 2, LateQuarter: 3, RelSlack: 0.25})
	for i := 0; i < 16; i++ {
		g.Set(1000)
		s.Tick()
	}
	var b strings.Builder
	s.Dump().WriteMarkdown(&b)
	md := b.String()
	for _, want := range []string{
		"# locind time-series report",
		"## Checks",
		"| heap-flat | `heap_bytes{shard=\"0\"}` | flat | ✅ ok |",
		"## Series",
		"`heap_bytes{shard=\"0\"}`",
	} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	if strings.Contains(md, "FAIL") {
		t.Fatalf("healthy report must not contain FAIL:\n%s", md)
	}
}
