package core

import (
	"sort"
	"strconv"
	"strings"

	"locind/internal/cdn"
	"locind/internal/netaddr"
)

// The strategy-at-a-time content replay: one Timeline.Walk per strategy,
// every address set resolved afresh at every event through ContentUpdated
// and PortSet — §3.3.1 written down as directly as it reads. It was
// production code until the fused evaluator took over its last caller; the
// declarations below are that code, verbatim, and the oracle
// TestFusedMatchesSeparateWalks, FuzzTimelineWalk and the union-flooding
// test compare the fused replay against.

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

// ContentUpdateStats replays a content timeline against router r and counts
// mobility events inducing an update — the per-collector quantity of
// Figures 11b/11c. For UnionFlooding it tracks the cumulative port set.
func ContentUpdateStats(r RouteLookup, tl *cdn.Timeline, st Strategy) UpdateStats {
	var s UpdateStats
	union := map[int]bool{}
	if st == UnionFlooding {
		for _, p := range PortSet(r, tl.Initial) {
			union[p] = true
		}
	}
	tl.Walk(func(_ cdn.Event, before, after []netaddr.Addr) {
		s.Events++
		switch st {
		case UnionFlooding:
			updated := false
			for _, p := range PortSet(r, after) {
				if !union[p] {
					union[p] = true
					updated = true
				}
			}
			if updated {
				s.Updates++
			}
		default:
			if ContentUpdated(r, before, after, st) {
				s.Updates++
			}
		}
	})
	return s
}

// ContentUpdateStatsAll pools ContentUpdateStats over many timelines.
func ContentUpdateStatsAll(r RouteLookup, tls []cdn.Timeline, st Strategy) UpdateStats {
	var s UpdateStats
	for i := range tls {
		s.Add(ContentUpdateStats(r, &tls[i], st))
	}
	return s
}
