package asgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: on any synthesized internetwork, every selected route is
// valley-free, loop-free, consistent in length with its path, and
// export-legal hop by hop (each AS on the path would actually have
// exported the suffix route to its predecessor).
func TestRoutesToInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultSynthConfig()
		cfg.Tier2 = 20 + rng.Intn(30)
		cfg.Stubs = 80 + rng.Intn(120)
		g, err := Synthesize(cfg, rng)
		if err != nil {
			return false
		}
		// A handful of random destinations per graph.
		for trial := 0; trial < 4; trial++ {
			d := rng.Intn(g.N())
			rt := g.RoutesTo(d)
			for probe := 0; probe < 40; probe++ {
				x := rng.Intn(g.N())
				if rt.PathLen(x) < 0 {
					return false // synthesis guarantees reachability
				}
				path := rt.Path(x)
				if len(path) != rt.PathLen(x)+1 {
					return false
				}
				if !g.ValleyFree(path) {
					return false
				}
				// Loop-free.
				seen := map[int]bool{}
				for _, as := range path {
					if seen[as] {
						return false
					}
					seen[as] = true
				}
				// Suffix consistency: selected routes compose — the path
				// from any AS along x's path is exactly the remaining
				// suffix (each hop forwards onto its own selected route).
				for i, as := range path {
					suffix := rt.Path(as)
					if len(suffix) != len(path)-i {
						return false
					}
					for j := range suffix {
						if suffix[j] != path[i+j] {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: ShortestUndirectedHops is a metric lower bound on every policy
// path length, and is symmetric.
func TestPhysicalLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cfg := DefaultSynthConfig()
	cfg.Tier2 = 40
	cfg.Stubs = 200
	g, err := Synthesize(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		d := rng.Intn(g.N())
		rt := g.RoutesTo(d)
		phys := g.ShortestUndirectedHops(d)
		for x := 0; x < g.N(); x += 7 {
			if phys[x] < 0 {
				t.Fatalf("AS%d physically unreachable", x)
			}
			if rt.PathLen(x) < phys[x] {
				t.Fatalf("policy path (%d) beats physical shortest (%d) at AS%d",
					rt.PathLen(x), phys[x], x)
			}
		}
		// Symmetry spot-check.
		src := rng.Intn(g.N())
		back := g.ShortestUndirectedHops(src)
		if phys[src] != back[d] {
			t.Fatalf("physical distance asymmetric: %d vs %d", phys[src], back[d])
		}
	}
}
