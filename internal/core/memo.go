package core

import (
	"sync"

	"locind/internal/bgp"
	"locind/internal/netaddr"
	"locind/internal/obs"
)

// memoStripes fixes the stripe count. 64 stripes keep the worst-case
// contention at 1/64th of a single lock even on machines far wider than the
// fan-out internal/par produces, while the whole lock table still fits in a
// few cache lines of metadata.
const memoStripes = 64

// memoStripe is one lock-striped shard of the cache: an ordinary Go map
// under an RWMutex. Plain maps store memoEntry values inline, so the hit
// path is a read-lock plus one map probe with no interface boxing. The pad
// keeps adjacent stripes' mutexes off one another's cache lines.
type memoStripe struct {
	mu sync.RWMutex
	m  map[netaddr.Addr]memoEntry
	_  [24]byte
}

// Memo wraps a RouteLookup with a per-router addr → route cache, for
// evaluations that meet the same address again with nowhere to keep its
// answer: the device drivers, which resolve both ends of every move event.
// (The fused content evaluator keeps resolutions beside the set it walks and
// needs no memo.) The underlying LPM lookup is pure, so the first resolution
// of an address can serve all later ones — the same move as the Loc/ID
// mapping caches the literature analyzes for resolution-based architectures.
//
// Memo is safe for concurrent use; parallel workers sharing one router
// simply share its cache. A racing pair of first lookups both consult the
// underlying table and store the same value, so results never depend on
// scheduling. The memo is unbounded: it lives as long as the evaluation
// that built it.
type Memo struct {
	r       RouteLookup
	stripes [memoStripes]memoStripe

	// nil-safe obs handles; unobserved memos pay one predictable branch.
	hits, misses *obs.Counter
}

type memoEntry struct {
	rt bgp.Route
	ok bool
}

// MemoMetrics aggregates cache behaviour across every memo sharing it.
type MemoMetrics struct {
	Hits   *obs.Counter
	Misses *obs.Counter
}

// NewMemoMetrics registers the memo counter families on reg. A nil
// registry yields all-nil handles.
func NewMemoMetrics(reg *obs.Registry) *MemoMetrics {
	return &MemoMetrics{
		Hits:   reg.Counter("locind_memo_hits_total", "route memo cache hits"),
		Misses: reg.Counter("locind_memo_misses_total", "route memo cache misses"),
	}
}

// NewMemo wraps r in a fresh unobserved cache.
func NewMemo(r RouteLookup) *Memo { return NewMemoObserved(r, nil) }

// NewMemoObserved wraps r in a fresh cache that counts its hits and misses
// into ms. ms may be nil.
func NewMemoObserved(r RouteLookup, ms *MemoMetrics) *Memo {
	m := &Memo{r: r}
	if ms != nil {
		m.hits, m.misses = ms.Hits, ms.Misses
	}
	return m
}

// stripeOf maps an address onto its stripe with a Fibonacci hash: addresses
// are dense structured integers (AS index × host counter), so taking raw
// low bits would pile whole prefixes onto one stripe.
func (m *Memo) stripeOf(a netaddr.Addr) *memoStripe {
	return &m.stripes[(uint64(a)*0x9E3779B97F4A7C15)>>(64-6)]
}

// Port returns the memoized output port (next-hop AS) for a.
//
//lint:zeroalloc per hit once the stripe's entry map is warm
func (m *Memo) Port(a netaddr.Addr) (int, bool) {
	rt, ok := m.RouteFor(a)
	if !ok {
		return -1, false
	}
	return rt.NextHop, true
}

// RouteFor returns the memoized selected route for a.
//
//lint:zeroalloc per hit once the stripe's entry map is warm
func (m *Memo) RouteFor(a netaddr.Addr) (bgp.Route, bool) {
	s := m.stripeOf(a)
	s.mu.RLock()
	ent, hit := s.m[a]
	s.mu.RUnlock()
	if hit {
		m.hits.Inc()
		return ent.rt, ent.ok
	}
	m.misses.Inc()
	rt, ok := m.r.RouteFor(a)
	s.mu.Lock()
	if _, raced := s.m[a]; !raced {
		if s.m == nil {
			s.m = make(map[netaddr.Addr]memoEntry)
		}
		s.m[a] = memoEntry{rt: rt, ok: ok}
	}
	s.mu.Unlock()
	return rt, ok
}
