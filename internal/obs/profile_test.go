package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestProfilerPhasesAndCounterDeltas(t *testing.T) {
	reg := NewRegistry()
	hits := reg.Counter("locind_memo_hits_total", "memo hits")
	misses := reg.Counter("locind_memo_misses_total", "memo misses")
	rows := reg.Counter("locind_rows_total", "rows")

	p := NewProfiler(reg)
	var tick time.Duration
	p.SetNow(func() time.Duration { tick += 10 * time.Millisecond; return tick })

	ph := p.Begin("build-world")
	rows.Add(100)
	ph.End()

	ph = p.Begin("fig8")
	hits.Add(30)
	misses.Add(10)
	ph.End()

	phases := p.Phases()
	if len(phases) != 2 || phases[0].Name != "build-world" || phases[1].Name != "fig8" {
		t.Fatalf("phase list wrong: %+v", phases)
	}
	if d := phases[0].Counters["locind_rows_total"]; d != 100 {
		t.Fatalf("build-world rows delta = %d, want 100", d)
	}
	if _, ok := phases[1].Counters["locind_rows_total"]; ok {
		t.Fatal("fig8 must not see build-world's counter increments")
	}
	if h, m := phases[1].Counters["locind_memo_hits_total"], phases[1].Counters["locind_memo_misses_total"]; h != 30 || m != 10 {
		t.Fatalf("fig8 memo deltas = %d hits, %d misses, want 30, 10", h, m)
	}
	for _, ps := range phases {
		if ps.Wall <= 0 {
			t.Fatalf("phase %q wall time not positive with a ticking clock: %+v", ps.Name, ps)
		}
		if ps.GoroutineHigh < 1 {
			t.Fatalf("phase %q goroutine high-water mark = %d", ps.Name, ps.GoroutineHigh)
		}
	}
}

// TestSnapshotInts: the profiler's baseline holds every counter, gauge and
// histogram count under its exposition key, and nothing else.
func TestSnapshotInts(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(3)
	r.Gauge("g", "", "k", "v").Set(9)
	r.Histogram("h_seconds", "", []float64{1}, "k", "v").Observe(0.25)
	got := snapshotInts(r)
	want := map[string]int64{"a_total": 3, `g{k="v"}`: 9, `h_seconds{k="v"}_count`: 1}
	if len(got) != len(want) {
		t.Fatalf("snapshotInts = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("snapshotInts[%s] = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
}

func TestProfilerPhaseEndTwiceCommitsOnce(t *testing.T) {
	p := NewProfiler(nil)
	ph := p.Begin("once")
	ph.End()
	ph.End()
	if got := len(p.Phases()); got != 1 {
		t.Fatalf("double End committed %d phases, want 1", got)
	}
}

func TestProfilerNilSafe(t *testing.T) {
	var p *Profiler
	p.SetNow(func() time.Duration { return 0 })
	ph := p.Begin("ghost")
	ph.End()
	if p.Phases() != nil {
		t.Fatal("nil profiler must report no phases")
	}
	var nilPhase *ProfPhase
	nilPhase.End()
}

func TestProfilerReportRendering(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("locind_memo_hits_total", "memo hits")
	p := NewProfiler(reg)
	ph := p.Begin("fig11b")
	reg.Counter("locind_memo_hits_total", "memo hits").Add(5)
	ph.End()

	var md strings.Builder
	p.WriteReport(&md)
	report := md.String()
	for _, want := range []string{"# RUNREPORT", "| fig11b |", "locind_memo_hits_total | 5"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}

	var js strings.Builder
	p.WriteJSON(&js)
	var doc struct {
		Phases []PhaseStats `json:"phases"`
	}
	if err := json.Unmarshal([]byte(js.String()), &doc); err != nil {
		t.Fatalf("JSON artifact invalid: %v\n%s", err, js.String())
	}
	if len(doc.Phases) != 1 || doc.Phases[0].Counters["locind_memo_hits_total"] != 5 {
		t.Fatalf("JSON artifact wrong: %+v", doc.Phases)
	}

	// Empty profiler renders the explicit no-phases form, not a bare table.
	var empty strings.Builder
	NewProfiler(nil).WriteReport(&empty)
	if !strings.Contains(empty.String(), "(no phases recorded)") {
		t.Fatalf("empty report:\n%s", empty.String())
	}
}
