// Package core implements the paper's primary contribution: the
// quantitative methodology for comparing location-independent network
// architectures. It provides the displacement test of §3.1-3.2 (does a
// mobility event change a router's forwarding behaviour?), the multihomed
// update-cost definitions of §3.3.1 for best-port forwarding and controlled
// flooding (plus the union-of-past-addresses strategy sketched in §3.3.3),
// forwarding-table size and aggregateability accounting, and the per-
// architecture cost model used by the experiments.
package core

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/mobility"
	"locind/internal/names"
	"locind/internal/netaddr"
)

// PortLookup is the slice of router behaviour the displacement test needs:
// the output port (next-hop AS) an address forwards to.
type PortLookup interface {
	Port(a netaddr.Addr) (int, bool)
}

// RouteLookup additionally exposes the selected route, which the best-port
// strategy needs to rank addresses by path length.
type RouteLookup interface {
	PortLookup
	RouteFor(a netaddr.Addr) (bgp.Route, bool)
}

// Displaced implements §3.1: a mobility event from one address to another
// displaces the endpoint with respect to a router iff the two addresses'
// longest-prefix matches point to different output ports. Events where
// either address has no route are not displacements (the paper's RIBs cover
// the full address space, so this arises only in truncated test tables).
func Displaced(r PortLookup, from, to netaddr.Addr) bool {
	p1, ok1 := r.Port(from)
	p2, ok2 := r.Port(to)
	return ok1 && ok2 && p1 != p2
}

// UpdateStats aggregates update-cost measurements at one router.
type UpdateStats struct {
	Events  int
	Updates int
}

// Rate returns Updates/Events (0 for an empty measurement).
func (s UpdateStats) Rate() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.Updates) / float64(s.Events)
}

// Add merges another measurement into s.
func (s *UpdateStats) Add(o UpdateStats) {
	s.Events += o.Events
	s.Updates += o.Updates
}

// DeviceUpdateStats measures the fraction of device mobility events that
// induce a forwarding update at router r — the quantity plotted per
// collector in Figure 8.
func DeviceUpdateStats(r PortLookup, events []mobility.MoveEvent) UpdateStats {
	var s UpdateStats
	for _, e := range events {
		s.Events++
		if Displaced(r, e.From.Addr, e.To.Addr) {
			s.Updates++
		}
	}
	return s
}

// Strategy selects among the §3.3.1 forwarding strategies.
type Strategy uint8

// Forwarding strategies.
const (
	// BestPort forwards on the single best output port; an update happens
	// when the best port changes.
	BestPort Strategy = iota
	// ControlledFlooding forwards on every eligible port; an update happens
	// when the set of eligible ports changes.
	ControlledFlooding
	// UnionFlooding is the §3.3.3 strategy: the router floods across the
	// ports of the union of all addresses ever observed, so an update
	// happens only when a never-before-seen port appears.
	UnionFlooding
)

// String names the strategy.
func (st Strategy) String() string {
	switch st {
	case BestPort:
		return "best-port"
	case ControlledFlooding:
		return "controlled-flooding"
	case UnionFlooding:
		return "union-flooding"
	}
	return "strategy-" + strconv.Itoa(int(st))
}

// PortSet returns the sorted set of eligible output ports for an address
// set: F(R, d, t) in the paper's notation. Addresses without a route are
// skipped.
func PortSet(r PortLookup, addrs []netaddr.Addr) []int {
	seen := map[int]bool{}
	for _, a := range addrs {
		if p, ok := r.Port(a); ok {
			seen[p] = true
		}
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// portSetKey canonicalizes a port set for use as a comparable table value.
func portSetKey(ports []int) string {
	var b strings.Builder
	for i, p := range ports {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(p))
	}
	return b.String()
}

// BestPortOf implements best(FIB(R, d, t)): the output port of the
// minimum-cost address, where cost is (AS-path length of the selected
// route, next-hop AS, address) — a deterministic "closest copy first"
// order. The boolean is false when no address has a route.
func BestPortOf(r RouteLookup, addrs []netaddr.Addr) (int, bool) {
	best := -1
	bestLen := 0
	var bestAddr netaddr.Addr
	found := false
	for _, a := range addrs {
		rt, ok := r.RouteFor(a)
		if !ok {
			continue
		}
		l := rt.PathLen()
		if !found ||
			l < bestLen ||
			(l == bestLen && rt.NextHop < best) ||
			(l == bestLen && rt.NextHop == best && a < bestAddr) {
			best, bestLen, bestAddr, found = rt.NextHop, l, a, true
		}
	}
	return best, found
}

// ContentUpdated implements the §3.3.1 update-cost definition for a single
// mobility event Addrs(d, t1) -> Addrs(d, t2) under the given strategy
// (UnionFlooding is stateful; use ContentUpdateStatsAllFused for it).
func ContentUpdated(r RouteLookup, before, after []netaddr.Addr, st Strategy) bool {
	switch st {
	case BestPort:
		b1, ok1 := BestPortOf(r, before)
		b2, ok2 := BestPortOf(r, after)
		return ok1 && ok2 && b1 != b2
	case ControlledFlooding:
		s1 := PortSet(r, before)
		s2 := PortSet(r, after)
		return portSetKey(s1) != portSetKey(s2)
	default:
		panic("core: ContentUpdated does not support stateful strategies")
	}
}

// StrategyStats bundles the per-strategy totals of one fused replay.
type StrategyStats struct {
	BestPort UpdateStats
	Flooding UpdateStats
	Union    UpdateStats
}

// Add merges another replay's totals into s.
func (s *StrategyStats) Add(o StrategyStats) {
	s.BestPort.Add(o.BestPort)
	s.Flooding.Add(o.Flooding)
	s.Union.Add(o.Union)
}

// resolved is what one address contributes at one router: the output port
// and AS-path length of its selected route, or ok == false for no route.
type resolved struct {
	port, pathLen int
	ok            bool
}

// fusedEval is the reusable scratch of the fused replay. res holds one
// resolution per address of the current set, in Timeline.Walk's sorted
// order, so the router is asked about an address once, when it enters the
// set, not at every event the address lives through; the port sets (two
// ping-pong buffers and the cumulative union) are read from res alone.
// Everything is a plain slice that allocates only while it warms up, so a
// shard of timelines replays with an allocation count independent of its
// events.
type fusedEval struct {
	res, next          []resolved
	ports, prev, union []int
}

// advance moves the evaluator from the sorted set before, which f.res is
// aligned with, to the sorted set after: one ordered merge in which an
// address that stayed keeps its entry and an address that entered is
// resolved (r must answer the same for an address for as long as the replay
// runs). It leaves after's sorted, deduplicated eligible ports in f.ports and
// returns its best port in BestPortOf's order — whose last tie-break, the
// address, never decides the port: two routes tied on (path length, next
// hop) leave through the same one.
func (f *fusedEval) advance(r RouteLookup, before, after []netaddr.Addr) (best int, ok bool) {
	f.next, f.ports = f.next[:0], f.ports[:0]
	var i, bestLen int
	for _, a := range after {
		for i < len(before) && before[i] < a {
			i++
		}
		var e resolved
		if i < len(before) && before[i] == a {
			e = f.res[i]
		} else {
			rt, routed := r.RouteFor(a)
			e = resolved{port: rt.NextHop, pathLen: rt.PathLen(), ok: routed}
		}
		f.next = append(f.next, e)
		if !e.ok {
			continue
		}
		f.ports = append(f.ports, e.port)
		if !ok || e.pathLen < bestLen || (e.pathLen == bestLen && e.port < best) {
			best, bestLen, ok = e.port, e.pathLen, true
		}
	}
	f.res, f.next = f.next, f.res
	slices.Sort(f.ports)
	f.ports = slices.Compact(f.ports)
	return best, ok
}

// unionAdd merges the sorted port set into the sorted cumulative union,
// reporting whether any never-before-seen port appeared (§3.3.3's update
// condition). Port sets are tiny, so the per-port binary search + insert is
// cheaper than any hashing.
func (f *fusedEval) unionAdd(ports []int) bool {
	grew := false
	for _, p := range ports {
		i, found := slices.BinarySearch(f.union, p)
		if found {
			continue
		}
		f.union = slices.Insert(f.union, i, p)
		grew = true
	}
	return grew
}

// replay is one timeline's fused walk; resolutions and union state start
// over with every timeline.
func (f *fusedEval) replay(r RouteLookup, tl *cdn.Timeline) StrategyStats {
	var out StrategyStats
	primed := false
	var prevBest int
	var prevBestOK bool
	tl.Walk(func(_ cdn.Event, before, after []netaddr.Addr) {
		if !primed {
			prevBest, prevBestOK = f.advance(r, nil, before)
			f.ports, f.prev = f.prev, f.ports
			f.union = append(f.union[:0], f.prev...)
			primed = true
		}
		best, bestOK := f.advance(r, before, after)

		out.BestPort.Events++
		if prevBestOK && bestOK && prevBest != best {
			out.BestPort.Updates++
		}
		out.Flooding.Events++
		if !slices.Equal(f.ports, f.prev) {
			out.Flooding.Updates++
		}
		out.Union.Events++
		if f.unionAdd(f.ports) {
			out.Union.Updates++
		}
		f.ports, f.prev = f.prev, f.ports
		prevBest, prevBestOK = best, bestOK
	})
	return out
}

// ContentUpdateStatsAllFused replays each timeline once and evaluates all
// three §3.3.1 strategies in that single Timeline.Walk, pooling the counts
// (union state starts over with every timeline). Each address is resolved
// once, when it enters the set, so a timeline costs one route lookup per
// initial address plus one per address an event adds, where a
// strategy-at-a-time replay pays ~6 per address per event. The counts are
// identical to running the per-strategy replay (ContentUpdateStats in
// strategy_oracle_test.go) once per strategy. The timelines share one scratch
// evaluator: once it is warm, a further timeline costs only what
// Timeline.Walk allocates for its own buffers.
//
//lint:zeroalloc per event, and per timeline beyond Timeline.Walk's own buffers
func ContentUpdateStatsAllFused(r RouteLookup, tls []cdn.Timeline) StrategyStats {
	var f fusedEval
	var s StrategyStats
	for i := range tls {
		s.Add(f.replay(r, &tls[i]))
	}
	return s
}

// BestPortTable builds the complete name-forwarding table of §3.3.2 under
// best-port forwarding: every name mapped to its single best output port.
// Names whose addresses have no route are omitted.
func BestPortTable(r RouteLookup, sets map[names.Name][]netaddr.Addr) map[names.Name]int {
	out := make(map[names.Name]int, len(sets))
	for n, addrs := range sets {
		if p, ok := BestPortOf(r, addrs); ok {
			out[n] = p
		}
	}
	return out
}

// AggregateabilityBestPort computes the §3.3.2 aggregateability metric (the
// ratio of complete to LPM table size) at router r under best-port
// forwarding — Figure 12's per-collector quantity.
func AggregateabilityBestPort(r RouteLookup, sets map[names.Name][]netaddr.Addr) float64 {
	return names.Aggregateability(BestPortTable(r, sets))
}
