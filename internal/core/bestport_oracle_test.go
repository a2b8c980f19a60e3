package core

import (
	"locind/internal/names"
	"locind/internal/netaddr"
)

// The collector-at-a-time Figure 12 path: every address resolved at one
// router through RouteFor, then names.Aggregateability, which builds the LPM
// table in a label trie to read its size. It was production code until
// AggregateabilityPerRouter took over its last caller; the declarations
// below are that code, verbatim, and the oracle the per-router count, the
// device replay and the fused content replay are compared against.

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
