// Package iplane substitutes for the iPlane path-prediction service the
// paper uses in §6.3.2: a predictor built from a limited corpus of
// traceroute-like measurements over the AS topology, answering latency
// queries only for pairs its measured segments cover (iPlane answered for
// just 5% of the paper's address pairs) — and, separately, the shortest
// AS-hop lower bound computed on the physical topology.
package iplane

import (
	"hash/fnv"
	"math/rand"

	"locind/internal/asgraph"
)

// LinkLatency returns the deterministic one-way latency in milliseconds of
// the AS adjacency (a, b): a few ms for an access link, more for transit,
// tens of ms for backbone spans, plus a large penalty when the endpoints
// sit in different regions (submarine/long-haul distance).
func LinkLatency(g *asgraph.Graph, a, b int) float64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	h := fnv.New32a()
	var buf [8]byte
	buf[0] = byte(lo)
	buf[1] = byte(lo >> 8)
	buf[2] = byte(lo >> 16)
	buf[3] = byte(lo >> 24)
	buf[4] = byte(hi)
	buf[5] = byte(hi >> 8)
	buf[6] = byte(hi >> 16)
	buf[7] = byte(hi >> 24)
	h.Write(buf[:])
	jitter := float64(h.Sum32()%1000) / 1000 // [0, 1)

	base := 8.0 + 14.0*jitter // access links: 8-22 ms
	ta, tb := g.Tier(a), g.Tier(b)
	if ta <= 2 && tb <= 2 {
		base = 12.0 + 18.0*jitter // transit interconnects: 12-30 ms
	}
	if ta == 1 && tb == 1 {
		base = 25.0 + 30.0*jitter // backbone spans: 25-55 ms
	}
	if g.Region(a) != g.Region(b) {
		base += 50.0 + 60.0*jitter // long-haul crossing
	}
	return base
}

// Predictor answers latency queries for AS pairs covered by its measured
// traceroute corpus.
type Predictor struct {
	// pairLat maps a covered ordered pair (packed as src<<32|dst) to the
	// measured sub-path latency.
	pairLat map[uint64]float64
}

func pack(src, dst int) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

// Build runs numTraces traceroute-like measurements: each picks a random
// vantage AS and a random target from targets, records the policy path
// between them, and registers every sub-segment of that path as answerable.
// Fewer traces means lower coverage — tune numTraces to reproduce iPlane's
// 5% response rate for a given query population.
func Build(g *asgraph.Graph, targets []int, numTraces int, rng *rand.Rand) *Predictor {
	p := &Predictor{pairLat: map[uint64]float64{}}
	if len(targets) == 0 || numTraces <= 0 {
		return p
	}
	var rt asgraph.RouteTable // one table for all traces; only the path is kept
	for i := 0; i < numTraces; i++ {
		dst := targets[rng.Intn(len(targets))]
		src := targets[rng.Intn(len(targets))]
		if src == dst {
			continue
		}
		g.RoutesToInto(&rt, dst)
		path := rt.Path(src)
		if len(path) < 2 {
			continue
		}
		// Cumulative latency along the measured path.
		cum := make([]float64, len(path))
		for j := 1; j < len(path); j++ {
			cum[j] = cum[j-1] + LinkLatency(g, path[j-1], path[j])
		}
		for a := 0; a < len(path); a++ {
			for b := a + 1; b < len(path); b++ {
				lat := cum[b] - cum[a]
				p.pairLat[pack(path[a], path[b])] = lat
				p.pairLat[pack(path[b], path[a])] = lat
			}
		}
	}
	return p
}

// Query predicts the one-way latency from srcAS to dstAS. Like iPlane, it
// answers only when its measured segments cover the pair.
func (p *Predictor) Query(srcAS, dstAS int) (float64, bool) {
	if srcAS == dstAS {
		return 0, true
	}
	lat, ok := p.pairLat[pack(srcAS, dstAS)]
	return lat, ok
}
