package core

import (
	"sort"

	"locind/internal/asgraph"
	"locind/internal/iplane"
	"locind/internal/mobility"
)

// IndirectionStretchHops returns, for each dominant→visited displacement,
// the AS-hop distance between home (dominant) and current AS on the
// physical topology — the paper's Fig. 10 lower-bound technique. Pairs are
// weighted implicitly by appearing once per user-day.
func IndirectionStretchHops(g *asgraph.Graph, pairs []mobility.DominantPair) []float64 {
	// Group by dominant AS so each BFS is reused.
	byHome := map[int][]int{}
	for _, p := range pairs {
		byHome[p.DominantAS] = append(byHome[p.DominantAS], p.VisitedAS)
	}
	homes := make([]int, 0, len(byHome))
	for h := range byHome {
		homes = append(homes, h)
	}
	// Deterministic order.
	sort.Ints(homes)
	var out []float64
	for _, h := range homes {
		dist := g.ShortestUndirectedHops(h)
		for _, v := range byHome[h] {
			if d := dist[v]; d >= 0 {
				out = append(out, float64(d))
			}
		}
	}
	return out
}

// IndirectionStretchLatency predicts home→current one-way latencies with
// the iPlane substitute; like the paper, only a small fraction of pairs is
// answerable. It returns the answered latencies and the coverage fraction.
func IndirectionStretchLatency(p *iplane.Predictor, pairs []mobility.DominantPair) (lats []float64, coverage float64) {
	if len(pairs) == 0 {
		return nil, 0
	}
	for _, pr := range pairs {
		if lat, ok := p.Query(pr.DominantAS, pr.VisitedAS); ok && pr.DominantAS != pr.VisitedAS {
			lats = append(lats, lat)
		}
	}
	return lats, float64(len(lats)) / float64(len(pairs))
}

// Back-of-the-envelope calculators (§6.2.2 and §7.3).

// UpdateLoadPerSec converts a population of mobile principals, their mean
// mobility-event rate, and the per-event probability of inducing a router
// update into an absolute router update rate per second. The paper's
// example: 2e9 devices × 3 events/day × 3% ⇒ ~2.1K updates/sec.
func UpdateLoadPerSec(principals, eventsPerDay, updateFrac float64) float64 {
	return principals * eventsPerDay * updateFrac / 86400
}

// ExtraFIBFraction estimates the fraction of principals for which a router
// holds a displaced host-route at any instant: the probability an event
// displaces the principal w.r.t. the router times the fraction of time
// spent away from the dominant (aggregated) location. The paper's §6.2.2
// estimate: 3% × 30% ≈ 1%.
func ExtraFIBFraction(updateRate, awayFrac float64) float64 {
	return updateRate * awayFrac
}
