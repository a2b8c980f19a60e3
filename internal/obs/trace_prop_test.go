package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestSpanEndTwiceCommitsOnce(t *testing.T) {
	tr := NewTracer(7, 8)
	s := tr.Start("once")
	s.End()
	s.End()
	if got := len(tr.Spans()); got != 1 {
		t.Fatalf("double End committed %d records, want 1", got)
	}
}

func TestSpanEndTwiceDoesNotEvictAtCapacity(t *testing.T) {
	// The defensive defer-plus-explicit close pattern must not advance the
	// ring cursor over a live record when the ring is already full.
	tr := NewTracer(7, 2)
	first := tr.Start("first")
	first.End()
	tr.Start("second").End() // ring now at capacity: [first, second]
	first.End()              // must be a no-op, not an eviction of "first"
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "first" || spans[1].Name != "second" {
		t.Fatalf("double End perturbed the ring: %+v", spans)
	}
}

func TestTracerEvictionOrderIsOldestFirst(t *testing.T) {
	tr := NewTracer(7, 3)
	names := []string{"a", "b", "c", "d", "e"}
	for _, n := range names {
		tr.Start(n).End()
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("kept %d spans, want 3", len(spans))
	}
	for i, want := range []string{"c", "d", "e"} {
		if spans[i].Name != want {
			t.Fatalf("eviction order wrong at %d: got %q want %q (%+v)", i, spans[i].Name, want, spans)
		}
	}
}

func TestTraceContextEncodeParseRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: 0xdeadbeefcafef00d, SpanID: 0x0123456789abcdef}
	wire := tc.Encode()
	if wire != "deadbeefcafef00d-0123456789abcdef" {
		t.Fatalf("Encode = %q", wire)
	}
	got, ok := ParseTraceContext(wire)
	if !ok || got != tc {
		t.Fatalf("round trip: got %+v ok=%v", got, ok)
	}
}

func TestTraceContextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",                                   // absent
		"deadbeefcafef00d",                   // missing span half
		"deadbeefcafef00d_0123456789abcdef",  // wrong separator
		"deadbeefcafef00d-0123456789abcde",   // short
		"deadbeefcafef00d-0123456789abcdefa", // long
		"zzzzzzzzzzzzzzzz-0123456789abcdef",  // bad hex
		"0000000000000000-0123456789abcdef",  // zero trace ID
		"deadbeefcafef00d-0000000000000000",  // zero span ID
	} {
		if _, ok := ParseTraceContext(bad); ok {
			t.Errorf("ParseTraceContext(%q) accepted malformed input", bad)
		}
	}
	if (TraceContext{}).Encode() != "" {
		t.Fatal("invalid context must encode to the empty string")
	}
}

// FuzzParseTraceContext: the parser reads wire input (gns Request.Trace, the
// TraceHeader of nomad and vantage uploads) and never panics; what it
// accepts is a valid context in exactly the form Encode writes, letter case
// aside. The committed corpus holds two space-carrying inputs fmt.Sscanf
// used to take.
func FuzzParseTraceContext(f *testing.F) {
	for _, s := range []string{"", "deadbeefcafef00d-0123456789abcdef", "DEADBEEFCAFEF00D-0123456789ABCDEF",
		"+000000000000001-0000000000000002", "0000000000000001-0x00000000000002", "0000_00000000001-0000000000000002"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceContext(s)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("ParseTraceContext(%q) rejected but returned %+v", s, tc)
			}
			return
		}
		if !tc.Valid() || tc.Encode() != strings.ToLower(s) {
			t.Fatalf("ParseTraceContext(%q) = %+v, which encodes to %q", s, tc, tc.Encode())
		}
	})
}

func TestRootSpanBeginsOwnTrace(t *testing.T) {
	tr := NewTracer(7, 8)
	root := tr.Start("root")
	child := root.Child("child")
	grand := child.Child("grand")
	grand.End()
	child.End()
	root.End()
	tc := root.Context()
	if tc.TraceID != root.ID() || tc.SpanID != root.ID() {
		t.Fatalf("root context = %+v, want trace==span==%016x", tc, root.ID())
	}
	for _, rec := range tr.Spans() {
		if rec.Trace != root.ID() {
			t.Fatalf("span %q escaped the root trace: %+v", rec.Name, rec)
		}
	}
}

func TestStartRemoteParentsOntoClientSpan(t *testing.T) {
	// Two tracers standing in for two processes: the server-side span must
	// join the client's trace and parent onto the client span.
	client := NewTracer(1, 8)
	server := NewTracer(2, 8)
	req := client.Start("request")
	remote := server.StartRemote(req.Context(), "handle")
	remote.End()
	req.End()
	rec := server.Spans()[0]
	if rec.Parent != req.ID() || rec.Trace != req.Context().TraceID {
		t.Fatalf("remote span not parented onto client span: %+v want parent=%016x", rec, req.ID())
	}
}

func TestStartRemoteInvalidContextDegradesToRoot(t *testing.T) {
	tr := NewTracer(7, 8)
	s := tr.StartRemote(TraceContext{}, "orphan")
	s.End()
	rec := tr.Spans()[0]
	if rec.Parent != 0 || rec.Trace != rec.ID {
		t.Fatalf("invalid context must yield a fresh root, got %+v", rec)
	}
}

func TestSpanContextPropagationHelpers(t *testing.T) {
	tr := NewTracer(7, 8)
	s := tr.Start("carrier")
	ctx := ContextWith(context.Background(), s)
	if FromContext(ctx) != s {
		t.Fatal("FromContext must return the carried span")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("FromContext on a bare context must be nil")
	}
	base := context.Background()
	if ContextWith(base, nil) != base {
		t.Fatal("ContextWith(nil span) must return ctx unchanged")
	}
	var nilSpan *Span
	if nilSpan.Context() != (TraceContext{}) {
		t.Fatal("nil span context must be zero")
	}
}

func TestRemoteSpanIDsDeterministic(t *testing.T) {
	// Same seeds, same workload → same IDs across both processes, so a
	// chaos replay's causal tree diffs clean against the original.
	build := func() (uint64, uint64) {
		client := NewTracer(11, 8)
		server := NewTracer(12, 8)
		server.SetNow(func() time.Duration { return 0 })
		req := client.Start("request", "name", "n1")
		h := server.StartRemote(req.Context(), "handle", "op", "lookup")
		h.End()
		req.End()
		return req.ID(), h.ID()
	}
	c1, s1 := build()
	c2, s2 := build()
	if c1 != c2 || s1 != s2 {
		t.Fatalf("span IDs not deterministic: (%x,%x) vs (%x,%x)", c1, s1, c2, s2)
	}
}
