package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// chromeEvent mirrors the subset of a trace_event entry the tests walk.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Args map[string]string `json:"args"`
}

func decodeChrome(t *testing.T, payload string) []chromeEvent {
	t.Helper()
	var doc struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(payload), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, payload)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	return doc.TraceEvents
}

func TestBuildTreeAssemblesCausalTree(t *testing.T) {
	tr := NewTracer(3, 16)
	root := tr.Start("root")
	a := root.Child("a")
	a.Child("a1").End()
	a.End()
	root.Child("b").End()
	root.End()
	tr.Start("lone").End()

	roots := BuildTree(tr.Spans())
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2: %+v", len(roots), roots)
	}
	byName := map[string]*SpanNode{}
	var walk func(n *SpanNode)
	walk = func(n *SpanNode) {
		byName[n.Name] = n
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	if len(byName) != 5 {
		t.Fatalf("tree lost spans: %v", byName)
	}
	if byName["a1"].Parent != byName["a"].ID || byName["a"].Parent != byName["root"].ID {
		t.Fatal("parent chain a1 -> a -> root broken")
	}
	if len(byName["root"].Children) != 2 {
		t.Fatalf("root has %d children, want 2 (a, b)", len(byName["root"].Children))
	}
	if byName["lone"].Parent != 0 || len(byName["lone"].Children) != 0 {
		t.Fatal("lone span must be an isolated root")
	}
}

func TestBuildTreeRemoteParentBecomesRoot(t *testing.T) {
	// A span whose parent lives in another process's tracer must surface as
	// a local root, not vanish.
	server := NewTracer(4, 8)
	server.StartRemote(TraceContext{TraceID: 99, SpanID: 42}, "handle").End()
	roots := BuildTree(server.Spans())
	if len(roots) != 1 || roots[0].Name != "handle" || roots[0].Parent != 42 {
		t.Fatalf("remote-parented span mishandled: %+v", roots)
	}
}

func TestWriteChromeExport(t *testing.T) {
	tr := NewTracer(5, 16)
	var tick time.Duration
	tr.SetNow(func() time.Duration { tick += time.Millisecond; return tick })
	req := tr.Start("request", "name", "n3")
	req.Child("attempt").End()
	req.End()

	var b strings.Builder
	tr.WriteChrome(&b)
	events := decodeChrome(t, b.String())
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	for _, ev := range events {
		if ev.Ph != "X" || ev.Pid != 1 {
			t.Fatalf("event shape wrong: %+v", ev)
		}
		if ev.Args["trace"] != events[0].Args["trace"] {
			t.Fatal("both spans must share one trace lane")
		}
	}
	if events[0].Tid != events[1].Tid {
		t.Fatal("spans of one trace must share a tid lane")
	}
	attempt, request := events[0], events[1] // commit order: child first
	if attempt.Name != "attempt" || request.Name != "request" {
		t.Fatalf("commit order wrong: %+v", events)
	}
	if attempt.Args["parent"] != request.Args["id"] {
		t.Fatalf("attempt.parent=%q, want request id %q", attempt.Args["parent"], request.Args["id"])
	}
	if _, ok := request.Args["parent"]; ok {
		t.Fatal("root span must not carry a parent arg")
	}
	if request.Args["label_name"] != "n3" {
		t.Fatalf("labels not exported: %+v", request.Args)
	}
	if attempt.Dur <= 0 {
		t.Fatalf("attempt duration not positive with a ticking clock: %+v", attempt)
	}
}

func TestWriteChromeSeparateTracesGetSeparateLanes(t *testing.T) {
	tr := NewTracer(6, 16)
	tr.Start("t1").End()
	tr.Start("t2").End()
	var b strings.Builder
	tr.WriteChrome(&b)
	events := decodeChrome(t, b.String())
	if len(events) != 2 || events[0].Tid == events[1].Tid {
		t.Fatalf("independent traces must get distinct tid lanes: %+v", events)
	}
	if events[0].Tid != 1 || events[1].Tid != 2 {
		t.Fatalf("lanes must number in first-appearance order: %+v", events)
	}
}

func TestWriteChromeEmptyAndNil(t *testing.T) {
	var b strings.Builder
	NewTracer(1, 4).WriteChrome(&b)
	if events := decodeChrome(t, b.String()); len(events) != 0 {
		t.Fatalf("empty tracer exported %d events", len(events))
	}
	b.Reset()
	var nilTr *Tracer
	nilTr.WriteChrome(&b)
	if events := decodeChrome(t, b.String()); len(events) != 0 {
		t.Fatalf("nil tracer exported %d events", len(events))
	}
}
