package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Tracer records spans with deterministic IDs. A span ID is the FNV-1a
// hash of (tracer seed, span name, labels, per-tracer sequence number) —
// no randomness, no clock — so two runs of the same workload under the
// same seed produce identical span IDs, and a trace from a chaos replay
// can be diffed line-for-line against the original. The determinism
// analyzer stays green because nothing here reads the wall clock: span
// durations come from an injected monotonic clock (SetNow), and without
// one they are zero — structure-only traces, still fully replayable.
//
// The tracer keeps the most recent Cap spans in a ring; recording is
// mutex-guarded (tracing is per-request/per-experiment, not per-lookup,
// so it is never on a zero-allocation hot path).
type Tracer struct {
	mu    sync.Mutex
	seed  uint64
	seq   uint64
	now   func() time.Duration
	spans ring[SpanRecord]
}

// SpanRecord is one finished (or still-open) span.
type SpanRecord struct {
	ID     uint64        `json:"id"`
	Trace  uint64        `json:"trace,omitempty"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Labels []string      `json:"labels,omitempty"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Open   bool          `json:"open,omitempty"`
}

// Span is a live span handle. End is a no-op on a nil receiver, so
// disabled tracing (nil *Tracer) costs one nil check per site.
type Span struct {
	t      *Tracer
	id     uint64
	trace  uint64
	name   string
	labels []string
	parent uint64
	start  time.Duration
	ended  bool // guarded by t.mu; End commits exactly once
}

// TraceContext is the compact cross-process span context: enough identity
// to parent a server-side span onto the client span that caused it. It is
// carried on the wire (gns request framing, and the TraceHeader of every
// nomad and vantage upload) as the Encode form, so spans recorded by
// different processes assemble into one causal tree. Like span IDs, both
// fields are deterministic under a fixed seed; they identify causality and
// must never feed seeds or ordering decisions (the determinism analyzer
// polices the latter).
type TraceContext struct {
	TraceID uint64 `json:"trace"`
	SpanID  uint64 `json:"span"`
}

// TraceHeader is the HTTP header both measurement pipelines' uploads carry
// their client span's TraceContext in, in Encode form; the server's span
// parents onto it.
const TraceHeader = "X-Locind-Trace"

// Valid reports whether tc carries a usable context (both IDs non-zero).
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 && tc.SpanID != 0 }

// Encode renders tc in the wire form "<trace-id>-<span-id>", two
// 16-hex-digit fields. An invalid context encodes to "" so omitempty JSON
// fields and absent headers fall out naturally.
func (tc TraceContext) Encode() string {
	if !tc.Valid() {
		return ""
	}
	return fmt.Sprintf("%016x-%016x", tc.TraceID, tc.SpanID)
}

// ParseTraceContext decodes the Encode form. Anything malformed — wrong
// length, bad hex, zero IDs — returns ok=false; propagation is best-effort
// and a mangled context must never fail a request. Each half goes through
// strconv.ParseUint, which takes exactly sixteen hex digits and nothing
// else (no sign, space or underscore), so ok implies Encode gives s back.
func ParseTraceContext(s string) (TraceContext, bool) {
	if len(s) != 33 || s[16] != '-' {
		return TraceContext{}, false
	}
	trace, terr := strconv.ParseUint(s[:16], 16, 64)
	span, serr := strconv.ParseUint(s[17:], 16, 64)
	tc := TraceContext{TraceID: trace, SpanID: span}
	if terr != nil || serr != nil || !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

// NewTracer builds a tracer whose span IDs derive from seed. capacity
// bounds the retained ring (values below 1 default to 4096).
func NewTracer(seed int64, capacity int) *Tracer {
	if capacity < 1 {
		capacity = 4096
	}
	return &Tracer{seed: uint64(seed), spans: ring[SpanRecord]{buf: make([]SpanRecord, 0, capacity)}}
}

// SetNow installs a monotonic clock used for span start/duration stamps.
// Daemons pass a closure over the wall clock; simulations either leave it
// unset (durations zero) or pass simulated time. nil clears the clock.
func (t *Tracer) SetNow(fn func() time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.now = fn
	t.mu.Unlock()
}

// spanID derives the deterministic ID for the seq-th span named name.
func (t *Tracer) spanID(name string, labels []string, seq uint64) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(t.seed >> (8 * i))
		buf[8+i] = byte(seq >> (8 * i))
	}
	h.Write(buf[:])       //nolint:errcheck // hash.Hash.Write never fails
	h.Write([]byte(name)) //nolint:errcheck
	for _, l := range labels {
		h.Write([]byte{0}) //nolint:errcheck
		h.Write([]byte(l)) //nolint:errcheck
	}
	id := h.Sum64()
	if id == 0 {
		id = 1 // 0 is "no parent"
	}
	return id
}

// Start opens a root span: the start of a new trace, whose trace ID is the
// span's own ID. Nil tracer → nil span, every operation on which is a
// no-op.
//
//lint:zeroalloc per call on a nil tracer, labels included
func (t *Tracer) Start(name string, labels ...string) *Span {
	return t.start(name, 0, 0, labels)
}

// StartRemote opens a span that continues a trace begun in another process
// (or another tracer): it joins tc's trace and parents onto tc's span, so
// a server-side span nests under the client span whose request it is
// handling. An invalid tc degrades to Start — a mangled or absent context
// yields a fresh root rather than an error.
//
//lint:zeroalloc per call on a nil tracer, labels included
func (t *Tracer) StartRemote(tc TraceContext, name string, labels ...string) *Span {
	if !tc.Valid() {
		return t.Start(name, labels...)
	}
	return t.start(name, tc.SpanID, tc.TraceID, labels)
}

func (t *Tracer) start(name string, parent, trace uint64, labels []string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	seq := t.seq
	t.seq++
	var start time.Duration
	if t.now != nil {
		start = t.now()
	}
	t.mu.Unlock()
	id := t.spanID(name, labels, seq)
	if trace == 0 {
		trace = id // a root span begins its own trace
	}
	// The span keeps its own copy of labels, so the variadic slice of the
	// caller never escapes: with tracing off it stays on the stack.
	return &Span{
		t: t, id: id, trace: trace, name: name,
		labels: append([]string(nil), labels...), parent: parent, start: start,
	}
}

// Child opens a span parented on s, in the same trace. Nil-safe: a child
// of a nil span is nil.
//
//lint:zeroalloc per call on a nil span, labels included
func (s *Span) Child(name string, labels ...string) *Span {
	if s == nil {
		return nil
	}
	return s.t.start(name, s.id, s.trace, labels)
}

// Context returns the propagation context for s: the handle a client puts
// on the wire so the server's spans parent onto s. Zero for a nil span, so
// disabled tracing encodes to "" and nothing is propagated.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.trace, SpanID: s.id}
}

// End closes the span and commits it to the tracer's ring. Exactly once:
// a second End on the same span is a no-op, so a defensive double-close
// (defer plus explicit) cannot duplicate the record or evict a live one.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	rec := SpanRecord{
		ID: s.id, Trace: s.trace, Parent: s.parent, Name: s.name, Labels: s.labels, Start: s.start,
	}
	if t.now != nil {
		rec.Dur = t.now() - s.start
	}
	t.spans.push(rec)
}

// Spans returns the retained spans, oldest first; nil before the first.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.appendTo(nil)
}

// WriteJSON renders the retained spans as a JSON array into b — the
// /debug/traces payload.
func (t *Tracer) WriteJSON(b *strings.Builder) {
	spans := t.Spans()
	if spans == nil {
		spans = []SpanRecord{}
	}
	enc, err := json.Marshal(spans)
	if err != nil {
		// SpanRecord has no unmarshalable fields; this is unreachable, but a
		// truncated debug payload beats a panic in an introspection handler.
		fmt.Fprintf(b, `{"error":%q}`, err.Error())
		return
	}
	b.Write(enc) //nolint:errcheck // strings.Builder cannot fail
}

// spanCtxKey keys the active span in a context.Context.
type spanCtxKey struct{}

// ContextWith returns ctx carrying s as the active span, the in-process
// leg of propagation: client helpers read it back with FromContext and put
// s.Context() on the wire. A nil span returns ctx unchanged.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// FromContext returns the active span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}
