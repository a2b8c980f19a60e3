package asgraph

import (
	"fmt"
	"math/rand"
)

// SynthConfig parameterizes Internet synthesis. The defaults produce a
// ~2000-AS internetwork with a tier-1 clique, regional transit tier, and a
// multihomed stub edge — the structure the paper's RouteViews RIBs reflect.
type SynthConfig struct {
	Tier1 int // settlement-free core ASes (full peer mesh)
	Tier2 int // regional/national transit ASes
	Stubs int // edge ASes (access networks, enterprises, content origins)

	// MultihomeFrac is the fraction of stubs with two or more providers.
	MultihomeFrac float64
	// MegaHomedFrac is the probability that a stub also buys transit from
	// its region's mega-transit (the widely peered first tier-2). High
	// values concentrate collector forwarding ports on the mega — the
	// mechanism that keeps real-world displacement rates low.
	MegaHomedFrac float64
	// Tier2PeerProb is the probability that two same-region tier-2 ASes
	// peer; cross-region tier-2 peering happens at a tenth of this rate.
	Tier2PeerProb float64
	// RegionWeights gives the relative AS population per region, indexed by
	// Region. Zero-value weights fall back to a default mix dominated by
	// North America and Europe (matching the paper's user base).
	RegionWeights [int(numRegions)]float64
}

// DefaultSynthConfig returns the configuration used by the experiments.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{
		Tier1:         12,
		Tier2:         180,
		Stubs:         1800,
		MultihomeFrac: 0.35,
		MegaHomedFrac: 0.88,
		Tier2PeerProb: 0.12,
		RegionWeights: [int(numRegions)]float64{
			NorthAmerica: 0.35,
			SouthAmerica: 0.10,
			Europe:       0.28,
			Asia:         0.17,
			Oceania:      0.06,
			Africa:       0.04,
		},
	}
}

// Synthesize builds an AS graph per cfg using rng. The resulting graph is
// guaranteed to give every AS a route to every other AS (every stub has at
// least one provider chain up to the tier-1 clique).
func Synthesize(cfg SynthConfig, rng *rand.Rand) (*Graph, error) {
	if cfg.Tier1 < 2 {
		return nil, fmt.Errorf("asgraph: need at least 2 tier-1 ASes, have %d", cfg.Tier1)
	}
	if cfg.Tier2 < 1 || cfg.Stubs < 0 {
		return nil, fmt.Errorf("asgraph: bad tier sizes t2=%d stubs=%d", cfg.Tier2, cfg.Stubs)
	}
	weights := cfg.RegionWeights
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	if sum == 0 {
		weights = DefaultSynthConfig().RegionWeights
		for _, w := range weights {
			sum += w
		}
	}
	pickRegion := func() Region {
		x := rng.Float64() * sum
		for r, w := range weights {
			if x < w {
				return Region(r)
			}
			x -= w
		}
		return NorthAmerica
	}

	n := cfg.Tier1 + cfg.Tier2 + cfg.Stubs
	g := NewGraph(n)

	// Tier-1 clique: global backbones. Spread them over the major regions
	// deterministically so every region has core presence.
	t1Regions := []Region{NorthAmerica, Europe, Asia, NorthAmerica, Europe, SouthAmerica}
	for i := 0; i < cfg.Tier1; i++ {
		g.SetAS(i, 1, t1Regions[i%len(t1Regions)])
		for j := 0; j < i; j++ {
			if err := g.AddPeer(i, j); err != nil {
				return nil, err
			}
		}
	}

	// Tier-2 transit: regional providers, each buying from 1-3 tier-1s and
	// peering regionally.
	t2start := cfg.Tier1
	byRegion := make([][]int, numRegions)
	for i := 0; i < cfg.Tier2; i++ {
		id := t2start + i
		reg := pickRegion()
		g.SetAS(id, 2, reg)
		byRegion[reg] = append(byRegion[reg], id)
		nProv := 1 + rng.Intn(3)
		perm := rng.Perm(cfg.Tier1)
		for _, p := range perm[:nProv] {
			if err := g.AddC2P(id, p); err != nil {
				return nil, err
			}
		}
	}
	// Regional peering. The first tier-2 of each region is a "mega transit"
	// that peers with every other tier-2 in its region (and with the other
	// regions' megas below): real collectors' port distributions are
	// dominated by one such widely-peered AS winning all path-length ties,
	// which is what keeps displacement rates at real routers low.
	var megas []int
	for ri := range byRegion {
		ids := byRegion[ri]
		if len(ids) > 0 {
			megas = append(megas, ids[0])
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if i == 0 || rng.Float64() < cfg.Tier2PeerProb {
					if err := g.AddPeer(ids[i], ids[j]); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	for i := 0; i < len(megas); i++ {
		for j := i + 1; j < len(megas); j++ {
			if err := g.AddPeer(megas[i], megas[j]); err != nil {
				return nil, err
			}
		}
	}
	// Sparse cross-region tier-2 peering.
	for i := 0; i < cfg.Tier2; i++ {
		for j := i + 1; j < cfg.Tier2; j++ {
			a, b := t2start+i, t2start+j
			if g.Region(a) != g.Region(b) && rng.Float64() < cfg.Tier2PeerProb/10 {
				if _, dup := g.RelOf(a, b); dup {
					continue // megas already peer via the mega mesh
				}
				if err := g.AddPeer(a, b); err != nil {
					return nil, err
				}
			}
		}
	}

	// Stubs: access/content networks. Providers come from the same region's
	// tier-2 pool when possible, chosen Zipf-weighted so a handful of large
	// regional transits capture most of the access market (as in the real
	// Internet) — this provider concentration is what keeps per-router
	// displacement rates in the paper's single-digit band. Multihomed stubs
	// add a second (sometimes third) provider, occasionally cross-region,
	// which is what creates genuine route diversity for collectors.
	stubStart := t2start + cfg.Tier2
	zipfPick := func(pool []int) int {
		// P(rank r) ∝ 1/(r+1).
		total := 0.0
		for r := range pool {
			total += 1 / float64(r+1)
		}
		x := rng.Float64() * total
		for r := range pool {
			w := 1 / float64(r+1)
			if x < w {
				return pool[r]
			}
			x -= w
		}
		return pool[len(pool)-1]
	}
	for i := 0; i < cfg.Stubs; i++ {
		id := stubStart + i
		reg := pickRegion()
		g.SetAS(id, 3, reg)
		pool := byRegion[reg]
		if len(pool) == 0 {
			// A region with no transit: fall back to a random tier-1.
			if err := g.AddC2P(id, rng.Intn(cfg.Tier1)); err != nil {
				return nil, err
			}
			continue
		}
		first := zipfPick(pool)
		if err := g.AddC2P(id, first); err != nil {
			return nil, err
		}
		if mega := pool[0]; mega != first && rng.Float64() < cfg.MegaHomedFrac {
			if err := g.AddC2P(id, mega); err != nil {
				return nil, err
			}
		}
		if rng.Float64() < cfg.MultihomeFrac {
			extra := 1
			if rng.Float64() < 0.2 {
				extra = 2
			}
			for k := 0; k < extra; k++ {
				var cand int
				if rng.Float64() < 0.25 {
					// Cross-region or tier-1 provider.
					cand = rng.Intn(cfg.Tier1 + cfg.Tier2)
				} else {
					cand = pool[rng.Intn(len(pool))]
				}
				if cand == id {
					continue
				}
				if _, dup := g.RelOf(id, cand); dup {
					continue
				}
				if err := g.AddC2P(id, cand); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// StubsInRegion lists stub ASes (tier 3) located in region r, in ID order.
func (g *Graph) StubsInRegion(r Region) []int {
	var out []int
	for x := 0; x < g.n; x++ {
		if g.tier[x] == 3 && g.region[x] == r {
			out = append(out, x)
		}
	}
	return out
}

// ASesInRegion lists all ASes in region r, in ID order.
func (g *Graph) ASesInRegion(r Region) []int {
	var out []int
	for x := 0; x < g.n; x++ {
		if g.region[x] == r {
			out = append(out, x)
		}
	}
	return out
}
