package core

import (
	"locind/internal/cdn"
	"locind/internal/netaddr"
)

// The strategy-at-a-time content replay: one Timeline.Walk per strategy,
// every address set resolved afresh at every event through ContentUpdated
// and PortSet — §3.3.1 written down as directly as it reads. It was
// production code until the fused evaluator took over its last caller; the
// two functions below are that code, verbatim, and the oracle
// TestFusedMatchesSeparateWalks, FuzzTimelineWalk and the union-flooding
// test compare the fused replay against.

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
