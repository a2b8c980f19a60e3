package obs

import (
	"context"
	"sync"
	"testing"
)

func TestSamplerNilSafe(t *testing.T) {
	var s *Sampler
	s.Tick()
	s.Pre(func() { t.Fatal("pre hook on nil sampler must never run") })
	s.Check("c", "k", MonotoneNonDecreasing{})
	if s.Ticks() != 0 || s.Series("k") != nil {
		t.Fatal("nil sampler must read as zero")
	}
	if got := s.Values("k", nil); got != nil {
		t.Fatalf("nil sampler Values = %v", got)
	}
	if s.Keys() != nil || s.EvalChecks() != nil {
		t.Fatal("nil sampler listings must be nil")
	}
	if ok, failed := s.Healthy(); !ok || failed != nil {
		t.Fatal("nil sampler must be healthy")
	}
	if NewSampler(nil, 16) != nil {
		t.Fatal("NewSampler(nil) must return nil (disabled)")
	}
	s.Run(context.Background()) // returns at once: nothing to tick
}

// TestSamplerRunTicksUntilDone: Run samples every SampleEvery and
// returns when ctx is done, so a caller that joins it knows no tick is in
// flight — what RunSoak relies on before its final hand-driven Tick.
func TestSamplerRunTicksUntilDone(t *testing.T) {
	reg := NewRegistry()
	s := NewSampler(reg, 16)
	ctx, cancel := context.WithCancel(context.Background())
	seen := make(chan struct{})
	var once sync.Once
	s.Pre(func() { once.Do(func() { close(seen) }) })
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(ctx)
	}()
	<-seen
	cancel()
	<-done
	if got := s.Ticks(); got < 1 {
		t.Fatalf("Run ticked %d times before cancel, want at least 1", got)
	}
}

func TestSamplerSnapshotsCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "")
	g := r.Gauge("depth", "", "shard", "2")
	s := NewSampler(r, 16)
	for i := 0; i < 3; i++ {
		c.Add(10)
		g.Set(int64(i))
		s.Tick()
	}
	if s.Ticks() != 3 {
		t.Fatalf("Ticks = %d", s.Ticks())
	}
	got := s.Values("reqs_total", nil)
	want := []float64{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counter series = %v, want %v", got, want)
		}
	}
	got = s.Values(`depth{shard="2"}`, nil)
	want = []float64{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gauge series = %v, want %v", got, want)
		}
	}
	if sr := s.Series(`depth{shard="2"}`); sr == nil || sr.Label("shard") != "2" {
		t.Fatal("labeled series must retain its label pairs")
	}
}

func TestSamplerPicksUpLateRegistrations(t *testing.T) {
	r := NewRegistry()
	early := r.Counter("early_total", "")
	s := NewSampler(r, 16)
	early.Inc()
	s.Tick()
	late := r.Gauge("late", "")
	late.Set(7)
	s.Tick()
	if got := s.Values("early_total", nil); len(got) != 2 {
		t.Fatalf("early series has %d samples, want 2", len(got))
	}
	got := s.Values("late", nil)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("late series = %v, want [7] (ring starts at first tick after registration)", got)
	}
}

func TestSamplerExpandsHistograms(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{0.1, 0.2, 0.4})
	s := NewSampler(r, 16)
	for i := 0; i < 100; i++ {
		h.Observe(0.15)
	}
	s.Tick()
	keys := s.Keys()
	wantKeys := []string{
		"lat_seconds_count", "lat_seconds_sum",
		"lat_seconds_p50", "lat_seconds_p95", "lat_seconds_p99",
	}
	if len(keys) != len(wantKeys) {
		t.Fatalf("Keys = %v", keys)
	}
	for i, k := range wantKeys {
		if keys[i] != k {
			t.Fatalf("Keys = %v, want %v", keys, wantKeys)
		}
	}
	if got := s.Values("lat_seconds_count", nil); got[0] != 100 {
		t.Fatalf("_count sample = %v", got)
	}
	if got := s.Values("lat_seconds_sum", nil); got[0] < 14.9 || got[0] > 15.1 {
		t.Fatalf("_sum sample = %v", got)
	}
	// Everything sits in (0.1, 0.2]; all quantiles interpolate inside it.
	for _, k := range []string{"lat_seconds_p50", "lat_seconds_p95", "lat_seconds_p99"} {
		got := s.Values(k, nil)
		if got[0] <= 0.1 || got[0] > 0.2 {
			t.Fatalf("%s sample = %v, want in (0.1, 0.2]", k, got)
		}
	}
}

func TestSamplerPreHooksRunEachTick(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("derived", "")
	s := NewSampler(r, 16)
	n := int64(0)
	s.Pre(func() { n++; g.Set(n) })
	s.Tick()
	s.Tick()
	got := s.Values("derived", nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("derived series = %v, want [1 2] (pre-hook before snapshot)", got)
	}
}

func TestSamplerChecksAndHealth(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "")
	s := NewSampler(r, 64)
	s.Check("depth-bounded", "depth", Bounded{Min: 0, Max: 100})
	s.Check("never-sampled", "no_such_series", MonotoneNonDecreasing{})

	// Before any tick, everything is vacuous.
	for _, res := range s.EvalChecks() {
		if !res.OK {
			t.Fatalf("pre-tick check %s must pass vacuously: %s", res.Name, res.Detail)
		}
	}

	g.Set(50)
	s.Tick()
	if ok, failed := s.Healthy(); !ok {
		t.Fatalf("in-range sampler must be healthy: %v", failed)
	}

	g.Set(1000)
	s.Tick()
	ok, failed := s.Healthy()
	if ok || len(failed) != 1 || failed[0].Name != "depth-bounded" {
		t.Fatalf("out-of-range must degrade: ok=%v failed=%v", ok, failed)
	}
	if failed[0].Kind != "bounded" || failed[0].Series != "depth" {
		t.Fatalf("failed result = %+v", failed[0])
	}

	// Re-binding the same name replaces, not duplicates.
	s.Check("depth-bounded", "depth", Bounded{Min: 0, Max: 1e9})
	if ok, failed := s.Healthy(); !ok {
		t.Fatalf("rebound check must pass: %v", failed)
	}
	if got := len(s.EvalChecks()); got != 2 {
		t.Fatalf("check count after rebind = %d, want 2", got)
	}
}

func TestSamplerCapacityFloor(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "")
	s := NewSampler(r, 1) // below the floor of 4 → default capacity
	s.Tick()
	if sr := s.Series("c_total"); cap(sr.buf) != DefaultSeriesCapacity {
		t.Fatalf("capacity = %d, want default %d", cap(sr.buf), DefaultSeriesCapacity)
	}
}

func TestSamplerRingWrapKeepsChecksOnTrailingWindow(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("v", "")
	s := NewSampler(r, 8)
	// 20 ticks of growth into an 8-slot ring: only the trailing window
	// remains, and a flatness check sees just that window.
	for i := 0; i < 20; i++ {
		g.Set(int64(i))
		s.Tick()
	}
	got := s.Values("v", nil)
	if len(got) != 8 || got[0] != 12 || got[7] != 19 {
		t.Fatalf("trailing window = %v", got)
	}
	s.Check("v-monotone", "v", MonotoneNonDecreasing{})
	if ok, failed := s.Healthy(); !ok {
		t.Fatalf("monotone over trailing window must pass: %v", failed)
	}
}

func TestRuntimeSamplerSetsGauges(t *testing.T) {
	r := NewRegistry()
	s := NewSampler(r, 16)
	s.Pre(RuntimeSampler(r))
	s.Tick()
	heap := s.Values("locind_runtime_heap_inuse_bytes", nil)
	gor := s.Values("locind_runtime_goroutines", nil)
	if len(heap) != 1 || heap[0] <= 0 {
		t.Fatalf("heap series = %v", heap)
	}
	if len(gor) != 1 || gor[0] < 1 {
		t.Fatalf("goroutine series = %v", gor)
	}
}

// The accessors below are these tests' view of a Sampler's rings; binaries
// and other packages' tests read them through Dump.

// Ticks returns how many samples each (fully synced) ring has received.
func (s *Sampler) Ticks() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ticks
}

// Series returns the ring with the given key, or nil. The caller must not
// read it concurrently with ticks — use Values for a safe copy.
func (s *Sampler) Series(key string) *Series {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byKey[key]
}

// Keys returns every sampled series key, in first-seen order.
func (s *Sampler) Keys() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, len(s.order))
	for i, sr := range s.order {
		keys[i] = sr.key
	}
	return keys
}

// Label returns the value of label k, or "" when unset.
func (s *Series) Label(k string) string {
	for _, p := range s.pairs {
		if p.K == k {
			return p.V
		}
	}
	return ""
}
