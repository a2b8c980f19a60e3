package obs

import (
	"fmt"
	"strings"
	"time"
)

// SpanNode is one span in an assembled causal tree.
type SpanNode struct {
	SpanRecord
	Children []*SpanNode
}

// BuildTree assembles span records into causal trees: each span hangs off
// its parent when the parent was recorded too, and becomes a root
// otherwise (true trace roots, and spans whose remote parent lives in
// another process's tracer). Order is deterministic — children keep record
// (commit) order and roots keep first-appearance order — so the tree of a
// seeded run is replayable structure-for-structure.
//
//lint:allow reach gns's TestChaosLookupCausalTree (trace_chaos_test.go) walks the cross-process tree of a chaos run
func BuildTree(spans []SpanRecord) []*SpanNode {
	nodes := make(map[uint64]*SpanNode, len(spans))
	ordered := make([]*SpanNode, 0, len(spans))
	for _, rec := range spans {
		n := &SpanNode{SpanRecord: rec}
		nodes[rec.ID] = n
		ordered = append(ordered, n)
	}
	var roots []*SpanNode
	for _, n := range ordered {
		if p, ok := nodes[n.Parent]; ok && n.Parent != n.ID {
			p.Children = append(p.Children, n)
			continue
		}
		roots = append(roots, n)
	}
	return roots
}

// WriteChrome renders the retained spans as Chrome trace_event JSON
// (the chrome://tracing / Perfetto "JSON Object Format"): one complete
// ("ph":"X") event per span, timestamps in microseconds from the injected
// clock (zero without one — the viewer still shows structure), traces
// mapped to thread lanes so one causal tree renders as one lane. The
// span/trace/parent IDs ride in args, hex-encoded, so a test can walk the
// exported causal tree exactly as a human would in the viewer.
func (t *Tracer) WriteChrome(b *strings.Builder) {
	spans := t.Spans()
	b.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	// Lanes: one tid per trace, numbered in first-appearance order so the
	// same seeded run always lays traces out identically.
	lanes := map[uint64]int{}
	for _, rec := range spans {
		if _, ok := lanes[rec.Trace]; !ok {
			lanes[rec.Trace] = len(lanes) + 1
		}
	}
	for i, rec := range spans {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `{"name":%q,"cat":"span","ph":"X","pid":1,"tid":%d,"ts":%d,"dur":%d,"args":{"id":"%016x","trace":"%016x"`,
			rec.Name, lanes[rec.Trace],
			rec.Start/time.Microsecond, rec.Dur/time.Microsecond,
			rec.ID, rec.Trace)
		if rec.Parent != 0 {
			fmt.Fprintf(b, `,"parent":"%016x"`, rec.Parent)
		}
		for j := 0; j+1 < len(rec.Labels); j += 2 {
			fmt.Fprintf(b, `,"label_%s":%q`, rec.Labels[j], rec.Labels[j+1])
		}
		b.WriteString("}}")
	}
	b.WriteString("]}")
}
