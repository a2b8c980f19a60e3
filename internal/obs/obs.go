// Package obs is the repository's observability substrate: an atomic
// hot-path metrics registry (counters, gauges, fixed-bucket histograms)
// with Prometheus text-format exposition, span-based tracing with
// deterministic IDs, a time-series sampler, a run profiler, and an HTTP
// introspection endpoint (/metrics, /debug/pprof/*, /debug/traces,
// /debug/timeseries, /debug/dash, /healthz) mounted by the daemons behind
// an -obs.addr flag.
//
// The design contract, enforced by tests:
//
//   - Hot paths never allocate: recording is an atomic add (or a short
//     CAS loop for histogram sums), and metric handles are resolved once
//     at registration time, never per observation.
//   - Disabled is free and safe: every recording method is a no-op on a
//     nil receiver, and a nil *Registry hands out nil handles, so
//     instrumented code runs unchanged — and unmeasured — when nobody
//     asked for metrics.
//   - Observation never perturbs results: experiment output is
//     byte-identical with obs on or off (internal/expt's determinism
//     tests compare the two), and nothing in this package reads the wall
//     clock — daemons inject a clock where latency is measured, so
//     simulation packages stay clean under the determinism analyzer.
//
// Metric naming follows the Prometheus convention, scoped by subsystem:
// locind_<subsystem>_<noun>_<unit>, e.g. locind_gns_requests_total,
// locind_expt_rows_total, locind_par_queue_depth. Counters end in _total;
// durations are seconds; label sets are fixed at registration.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add applies a delta.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value; 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed cumulative buckets — the
// Prometheus histogram model with the bucket layout frozen at registration.
// Observe is lock-free: one linear bucket scan (bucket counts are small and
// fixed), two atomic adds, and a CAS loop for the float sum.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds; +Inf is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // math.Float64bits
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations; 0 on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values; 0 on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DefBuckets is a general-purpose latency layout in seconds, from 100µs to
// ~10s — wide enough for loopback RPCs and chaos-injected stalls alike.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metricKind discriminates exposition rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// labelPair is one structured label, kept alongside the pre-rendered
// exposition string so the sampler and dashboard can group series by label
// without re-parsing exposition text.
type labelPair struct{ K, V string }

// series is one registered time series: a metric handle plus its identity.
type series struct {
	name   string // family name
	labels string // pre-rendered `k="v",k2="v2"`, or ""
	pairs  []labelPair
	help   string
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry owns a set of named series. Registration is cold-path (mutex);
// the returned handles are the hot path. The zero value is not usable; a
// nil *Registry is the disabled state and hands out nil handles from every
// constructor.
type Registry struct {
	mu     sync.Mutex
	series []*series
	byKey  map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*series{}}
}

// validName matches the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// sortLabels turns ("k","v","k2","v2") pairs into sorted structured pairs,
// so the same label set always renders — and keys — identically.
func sortLabels(pairs []string) []labelPair {
	if len(pairs) == 0 {
		return nil
	}
	if len(pairs)%2 != 0 {
		panic("obs: labels must be key,value pairs")
	}
	kvs := make([]labelPair, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		if !validName(pairs[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", pairs[i]))
		}
		kvs = append(kvs, labelPair{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].K < kvs[j].K })
	return kvs
}

// renderLabels renders sorted pairs in the exposition form.
func renderLabels(kvs []labelPair) string {
	if len(kvs) == 0 {
		return ""
	}
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.K, p.V)
	}
	return b.String()
}

// register returns the series for (name, labels), creating it on first use.
// Re-registering the same identity returns the existing series, so package
// singletons and tests can share handles; re-registering with a different
// kind panics (it is a programming error, caught at startup).
func (r *Registry) register(name, help string, labels []string, kind metricKind) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	pairs := sortLabels(labels)
	ls := renderLabels(pairs)
	key := name + "{" + ls + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as a different kind", key))
		}
		return s
	}
	s := &series{name: name, labels: ls, pairs: pairs, help: help, kind: kind}
	r.byKey[key] = s
	r.series = append(r.series, s)
	return s
}

// Counter registers (or fetches) a counter. A nil registry returns a nil
// handle — the disabled, zero-overhead state.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	s := r.register(name, help, labels, kindCounter)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge registers (or fetches) a gauge. Nil registry → nil handle.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.register(name, help, labels, kindGauge)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram registers (or fetches) a histogram with the given bucket upper
// bounds (nil means DefBuckets). Nil registry → nil handle.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.register(name, help, labels, kindHistogram)
	if s.h == nil {
		if buckets == nil {
			buckets = DefBuckets
		}
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
		s.h = h
	}
	return s.h
}
