package obs

import (
	"strings"
	"testing"
	"time"
)

// run replays a fixed span workload and returns the recorded IDs.
func runSpans(seed int64) []uint64 {
	tr := NewTracer(seed, 64)
	var ids []uint64
	for _, name := range []string{"fig8", "fig11b", "fig11c"} {
		s := tr.Start(name, "experiment", name)
		c := s.Child("collector", "name", "Oregon-1")
		ids = append(ids, s.ID(), c.ID())
		c.End()
		s.End()
	}
	return ids
}

func TestSpanIDsDeterministic(t *testing.T) {
	a, b := runSpans(20140817), runSpans(20140817)
	if len(a) != len(b) || len(a) != 6 {
		t.Fatalf("span counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("span %d: id %x != %x (same seed must replay)", i, a[i], b[i])
		}
		if a[i] == 0 {
			t.Fatalf("span %d: zero id", i)
		}
	}
	c := runSpans(7)
	if c[0] == a[0] {
		t.Fatal("different seed produced the same root span ID")
	}
	seen := map[uint64]bool{}
	for _, id := range a {
		if seen[id] {
			t.Fatalf("duplicate span id %x within one trace", id)
		}
		seen[id] = true
	}
}

func TestSpanParentage(t *testing.T) {
	tr := NewTracer(1, 8)
	root := tr.Start("root")
	child := root.Child("child")
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	// End order: child first.
	if spans[0].Name != "child" || spans[0].Parent != root.ID() {
		t.Fatalf("child record = %+v (root id %x)", spans[0], root.ID())
	}
	if spans[1].Parent != 0 {
		t.Fatalf("root must have no parent: %+v", spans[1])
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(1, 3)
	for i := 0; i < 5; i++ {
		tr.Start("s", "i", string(rune('a'+i))).End()
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("ring kept %d spans, want 3", len(spans))
	}
	if spans[0].Labels[1] != "c" || spans[2].Labels[1] != "e" {
		t.Fatalf("ring order wrong: %+v", spans)
	}
}

func TestNilTracerAndSpan(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x")
	if s != nil {
		t.Fatal("nil tracer must produce nil spans")
	}
	s.End()
	if s.Child("y") != nil {
		t.Fatal("child of nil span must be nil")
	}
	if s.ID() != 0 || tr.Spans() != nil {
		t.Fatal("nil reads must be zero")
	}
	tr.SetNow(nil)
	var b strings.Builder
	tr.WriteJSON(&b)
	if b.String() != "[]" {
		t.Fatalf("nil tracer JSON = %q", b.String())
	}
}

func TestInjectedClockStampsDurations(t *testing.T) {
	tr := NewTracer(1, 8)
	now := time.Duration(0)
	tr.SetNow(func() time.Duration { return now })
	s := tr.Start("timed")
	now = 250 * time.Millisecond
	s.End()
	spans := tr.Spans()
	if spans[0].Dur != 250*time.Millisecond {
		t.Fatalf("dur = %v", spans[0].Dur)
	}
	// Without a clock, durations are zero but IDs are unchanged: the
	// structure of the trace is clock-independent.
	tr2 := NewTracer(1, 8)
	s2 := tr2.Start("timed")
	s2.End()
	if s2.ID() != s.ID() {
		t.Fatal("span ID must not depend on the clock")
	}
	if tr2.Spans()[0].Dur != 0 {
		t.Fatal("clockless span must have zero duration")
	}
}

// ID returns the deterministic span ID (0 for a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}
