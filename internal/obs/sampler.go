package obs

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Sampler periodically snapshots a Registry into fixed-capacity Series
// rings — the time-series layer behind /debug/timeseries, the /debug/dash
// sparklines, and the SeriesCheck health assertions. Tick is clock-free: a
// test drives it by hand and stays deterministic, exactly like the tracer's
// injected now. Run is the one ticker the daemons share, a time.Ticker loop
// over Tick every SampleEvery.
//
// Memory model: every registry series costs one ring of Capacity float64s
// (histograms cost five: _count, _sum, and the interpolated _p50/_p95/_p99
// quantile series), allocated once when the series is first seen and never
// grown — a long soak's sampler is constant memory, and the steady-state
// per-tick snapshot path is allocation-free (pinned by TestAllocGuard).
// Metrics registered after the sampler starts are picked up on their first
// tick; their rings simply start later.
type Sampler struct {
	mu       sync.Mutex
	reg      *Registry
	capacity int

	known   int // registry series already synced
	sources []source
	byKey   map[string]*Series
	order   []*Series
	pre     []func()
	checks  []checkBinding
	ticks   int64

	scratch []float64 // check-evaluation buffer, reused
}

// source samples one registry series into its ring(s) each tick.
type source struct {
	kind metricKind
	c    *Counter
	g    *Gauge

	h   *Histogram
	cum []int64 // histogram cumulative-count scratch, len(bounds)

	out *Series // counter/gauge value, or histogram _count
	sum *Series
	p50 *Series
	p95 *Series
	p99 *Series
}

// checkBinding attaches one SeriesCheck to one series key.
type checkBinding struct {
	name  string
	key   string
	check SeriesCheck
}

// SampleEvery is the period Run ticks at, and the interval a Dump reports.
// Tick itself never sleeps.
const SampleEvery = 200 * time.Millisecond

// DefaultSeriesCapacity is the ring size samplers default to: at SampleEvery
// it retains the trailing ~13 minutes, and costs 32 KiB per series.
const DefaultSeriesCapacity = 4096

// NewSampler builds a sampler over reg with the given ring capacity per
// series (values below 4 take DefaultSeriesCapacity; four is the floor the
// quarter-median checks need). A nil registry yields a nil sampler — the
// disabled state, on which every method is a no-op.
func NewSampler(reg *Registry, capacity int) *Sampler {
	if reg == nil {
		return nil
	}
	if capacity < 4 {
		capacity = DefaultSeriesCapacity
	}
	return &Sampler{reg: reg, capacity: capacity, byKey: map[string]*Series{}}
}

// Registry returns the registry s samples: the one place its metrics
// register, so every check it binds reads a series it can sample. Nil for
// a nil sampler.
func (s *Sampler) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Pre registers a hook run at the start of every tick, before sampling —
// the place to refresh derived gauges (runtime heap, per-shard rollups,
// event rates) so the same tick that computes them also records them.
func (s *Sampler) Pre(fn func()) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	s.pre = append(s.pre, fn)
	s.mu.Unlock()
}

// Check binds a SeriesCheck to the series with the given key (Series.Key
// form: name or name{labels}). Re-using a name replaces the prior binding.
// A key that never materializes evaluates vacuously OK with a "series not
// sampled" detail, so checks can be declared before the first tick.
func (s *Sampler) Check(name, seriesKey string, c SeriesCheck) {
	if s == nil || c == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.checks {
		if s.checks[i].name == name {
			s.checks[i] = checkBinding{name: name, key: seriesKey, check: c}
			return
		}
	}
	s.checks = append(s.checks, checkBinding{name: name, key: seriesKey, check: c})
}

// Tick takes one sample of every registry series: pre-hooks first, then a
// cold sync picking up newly registered metrics, then the zero-alloc
// snapshot into the rings.
func (s *Sampler) Tick() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, fn := range s.pre {
		fn()
	}
	s.sync()
	s.snapshot()
	s.ticks++
}

// Run calls Tick every SampleEvery until ctx is done, then returns: the
// sampling loop of every daemon, run in a goroutine the caller joins if it
// needs the last sample ordered. A nil sampler returns at once.
func (s *Sampler) Run(ctx context.Context) {
	if s == nil {
		return
	}
	tick := time.NewTicker(SampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			s.Tick()
		}
	}
}

// sync builds sources and rings for registry series seen for the first
// time. This is the allocating cold path; it runs at most once per newly
// registered metric and is a length comparison otherwise.
func (s *Sampler) sync() {
	s.reg.mu.Lock()
	fresh := s.reg.series[s.known:]
	s.known = len(s.reg.series)
	s.reg.mu.Unlock()
	for _, rs := range fresh {
		src := source{kind: rs.kind, c: rs.c, g: rs.g, h: rs.h}
		switch rs.kind {
		case kindCounter, kindGauge:
			src.out = s.addSeries(rs.name, rs.pairs)
		case kindHistogram:
			src.cum = make([]int64, len(rs.h.bounds))
			src.out = s.addSeries(rs.name+"_count", rs.pairs)
			src.sum = s.addSeries(rs.name+"_sum", rs.pairs)
			src.p50 = s.addSeries(rs.name+"_p50", rs.pairs)
			src.p95 = s.addSeries(rs.name+"_p95", rs.pairs)
			src.p99 = s.addSeries(rs.name+"_p99", rs.pairs)
		}
		s.sources = append(s.sources, src)
	}
}

// addSeries creates (or reuses) the ring for one sampled series identity.
func (s *Sampler) addSeries(name string, pairs []labelPair) *Series {
	key := name + wrapLabels(renderLabels(pairs))
	if sr, ok := s.byKey[key]; ok {
		return sr
	}
	sr := newSeries(name, pairs, key, s.capacity)
	s.byKey[key] = sr
	s.order = append(s.order, sr)
	return sr
}

// snapshot pushes one sample of every synced source into its ring: atomic
// loads, bucket arithmetic, and ring index writes only.
//
//lint:zeroalloc per tick once the series rings are allocated (sync is the cold path)
func (s *Sampler) snapshot() {
	for i := range s.sources {
		src := &s.sources[i]
		switch src.kind {
		case kindCounter:
			src.out.push(float64(src.c.Value()))
		case kindGauge:
			src.out.push(float64(src.g.Value()))
		case kindHistogram:
			h := src.h
			cum := int64(0)
			for b := range h.counts {
				cum += h.counts[b].Load()
				src.cum[b] = cum
			}
			total := h.Count()
			src.out.push(float64(total))
			src.sum.push(h.Sum())
			src.p50.push(quantileFromCum(h.bounds, src.cum, total, 0.50))
			src.p95.push(quantileFromCum(h.bounds, src.cum, total, 0.95))
			src.p99.push(quantileFromCum(h.bounds, src.cum, total, 0.99))
		}
	}
}

// Values appends the retained samples of the series with the given key
// (oldest first) onto dst; unknown keys append nothing.
func (s *Sampler) Values(key string, dst []float64) []float64 {
	if s == nil {
		return dst
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byKey[key].Values(dst)
}

// EvalChecks evaluates every bound check against the current rings, in
// binding order. Checks whose series has not materialized pass vacuously.
func (s *Sampler) EvalChecks() []CheckResult {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evalChecksLocked()
}

// evalChecksLocked is EvalChecks for a caller that holds s.mu.
func (s *Sampler) evalChecksLocked() []CheckResult {
	out := make([]CheckResult, 0, len(s.checks))
	for _, cb := range s.checks {
		res := CheckResult{Name: cb.name, Series: cb.key, Kind: cb.check.Kind()}
		if sr, ok := s.byKey[cb.key]; ok {
			s.scratch = sr.Values(s.scratch[:0])
			res.OK, res.Detail = cb.check.Eval(s.scratch)
		} else {
			res.OK, res.Detail = true, "series not sampled (yet)"
		}
		out = append(out, res)
	}
	return out
}

// Healthy reduces EvalChecks to the /healthz answer: ok when every check
// passes, otherwise false with the failing results.
func (s *Sampler) Healthy() (bool, []CheckResult) {
	results := s.EvalChecks()
	var failed []CheckResult
	for _, r := range results {
		if !r.OK {
			failed = append(failed, r)
		}
	}
	return len(failed) == 0, failed
}

// RuntimeSampler returns a Pre hook that refreshes process-level runtime
// gauges — heap in use and goroutine count — on reg, so every tick records
// them alongside the application metrics. Registering is idempotent (the
// registry hands back the same gauges).
func RuntimeSampler(reg *Registry) func() {
	heap := reg.Gauge("locind_runtime_heap_inuse_bytes", "runtime.MemStats.HeapInuse at the last sample tick")
	gor := reg.Gauge("locind_runtime_goroutines", "goroutine count at the last sample tick")
	return func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap.Set(int64(ms.HeapInuse))
		gor.Set(int64(runtime.NumGoroutine()))
	}
}
