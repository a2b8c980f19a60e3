package reliable

import (
	"errors"
	"fmt"
	"testing"

	"locind/internal/obs"
)

func TestCacheUnboundedByDefault(t *testing.T) {
	var c Cache[int, int]
	ctr := obs.NewRegistry().Counter("test_evictions_total", "test")
	c.Bound(0, ctr)
	for i := 0; i < 1000; i++ {
		c.Put(i, i)
	}
	if len(c.m) != 1000 {
		t.Fatalf("unbounded cache holds %d entries, want 1000", len(c.m))
	}
	if ctr.Value() != 0 {
		t.Fatalf("unbounded cache evicted %d", ctr.Value())
	}
}

func TestCacheBoundEpochFlush(t *testing.T) {
	var c Cache[string, int]
	ctr := obs.NewRegistry().Counter("test_evictions_total", "test")
	c.Bound(3, ctr)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	if len(c.m) != 3 || ctr.Value() != 0 {
		t.Fatalf("at capacity: len=%d evictions=%d", len(c.m), ctr.Value())
	}
	// Re-putting an existing key at capacity must not flush.
	c.Put("b", 20)
	if len(c.m) != 3 || ctr.Value() != 0 {
		t.Fatalf("overwrite at capacity flushed: len=%d evictions=%d", len(c.m), ctr.Value())
	}
	if v, _ := c.Get("b"); v != 20 {
		t.Fatalf("overwrite lost: got %d", v)
	}
	// A fourth distinct key crosses the cap: the whole epoch flushes and the
	// new entry starts the next one.
	c.Put("d", 4)
	if len(c.m) != 1 {
		t.Fatalf("after flush: len=%d, want 1", len(c.m))
	}
	if ctr.Value() != 3 {
		t.Fatalf("after flush: evictions=%d, want 3", ctr.Value())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("flushed entry still present")
	}
	if v, ok := c.Get("d"); !ok || v != 4 {
		t.Fatalf("new-epoch entry missing: %d %v", v, ok)
	}
}

func TestCacheBoundNeverExceedsLimit(t *testing.T) {
	var c Cache[int, int]
	ctr := obs.NewRegistry().Counter("test_evictions_total", "test")
	c.Bound(16, ctr)
	for i := 0; i < 1000; i++ {
		c.Put(i, i)
		if len(c.m) > 16 {
			t.Fatalf("cache grew to %d entries past limit 16", len(c.m))
		}
	}
	// 1000 distinct keys over a 16-slot cache: every full epoch flushed.
	if ctr.Value() < 900 {
		t.Fatalf("evictions=%d, expected most of 1000 inserts flushed", ctr.Value())
	}
}

func TestCacheEvictionCounter(t *testing.T) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("test_evictions_total", "test")
	var c Cache[string, int]
	c.Bound(2, ctr)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3) // flush of 2
	if got := ctr.Value(); got != 2 {
		t.Fatalf("counter=%d, want 2", got)
	}
}

func TestCacheFallbackStillWorksBounded(t *testing.T) {
	var c Cache[string, string]
	c.Bound(2, nil)
	fail := fmt.Errorf("down")
	if _, _, err := c.Fallback("k", func() (string, error) { return "", fail }); err == nil {
		t.Fatal("cold-miss fallback should surface the fetch error")
	}
	if v, stale, err := c.Fallback("k", func() (string, error) { return "fresh", nil }); err != nil || stale || v != "fresh" {
		t.Fatalf("fresh fetch: %q stale=%v err=%v", v, stale, err)
	}
	if v, stale, err := c.Fallback("k", func() (string, error) { return "", fail }); err != nil || !stale || v != "fresh" {
		t.Fatalf("degraded fetch: %q stale=%v err=%v", v, stale, err)
	}
}

func TestCacheFallback(t *testing.T) {
	var c Cache[string, int]
	// Miss with no cache: error surfaces.
	_, stale, err := c.Fallback("k", func() (int, error) { return 0, errors.New("down") })
	if err == nil || stale {
		t.Fatalf("empty-cache fallback = stale=%v err=%v", stale, err)
	}
	// Success populates the cache.
	v, stale, err := c.Fallback("k", func() (int, error) { return 7, nil })
	if err != nil || stale || v != 7 {
		t.Fatalf("fresh fallback = (%d, %v, %v)", v, stale, err)
	}
	if got, ok := c.Get("k"); !ok || got != 7 {
		t.Fatalf("cache after success = (%d, %v)", got, ok)
	}
	// Failure now degrades to the stale value.
	v, stale, err = c.Fallback("k", func() (int, error) { return 0, errors.New("down") })
	if err != nil || !stale || v != 7 {
		t.Fatalf("stale fallback = (%d, %v, %v)", v, stale, err)
	}
	if len(c.m) != 1 {
		t.Fatalf("Len = %d", len(c.m))
	}
}

// The degradation the cache exists for, written out once: cluster.Client does
// the same by hand around its quorum reads. The two tests above hold Put and
// Get to it; no binary calls it.
//
// Fallback runs fetch; on success it caches and returns the fresh value
// (stale=false). On failure it falls back to the cached value when one
// exists, returning it with stale=true and a nil error — graceful
// degradation. With no cached value the fetch error is returned.
func (c *Cache[K, V]) Fallback(k K, fetch func() (V, error)) (v V, stale bool, err error) {
	v, err = fetch()
	if err == nil {
		c.Put(k, v)
		return v, false, nil
	}
	if cached, ok := c.Get(k); ok {
		return cached, true, nil
	}
	return v, false, err
}
