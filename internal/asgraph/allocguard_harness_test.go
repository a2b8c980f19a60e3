package asgraph

import (
	"math/rand"
	"testing"

	"locind/internal/lint/allocguard"
)

func TestAllocGuard(t *testing.T) { allocguard.Check(t, allocGuardHarness()) }

// allocGuardHarness maps each //lint:zeroalloc symbol in this package to
// its measurement, consumed by TestAllocGuard. A reused
// RouteTable's only legitimate allocations are its arrays and scratch
// growing to fit the graph, so the measurement first runs every destination
// once and then requires a second pass over all of them to be absolutely
// allocation-free. The readers resolve a customerless AS's route on read, so
// they are measured on every AS toward a stub and toward a transit AS.
func allocGuardHarness() map[string]func(t *testing.T) float64 {
	return map[string]func(t *testing.T) float64{
		"Graph.RoutesToInto": func(t *testing.T) float64 {
			g := guardGraph(t)
			var rt RouteTable
			pass := func() {
				for d := 0; d < g.N(); d++ {
					g.RoutesToInto(&rt, d)
				}
			}
			pass()
			return testing.AllocsPerRun(10, pass)
		},
		"RouteTable.PathLen": func(t *testing.T) float64 {
			g := guardGraph(t)
			return readEveryAS(g, func(rt *RouteTable, x int) {
				if rt.PathLen(x) < 0 {
					t.Fatalf("AS%d has no route to %d", x, rt.Dest)
				}
			})
		},
		"RouteTable.AppendPath": func(t *testing.T) float64 {
			g := guardGraph(t)
			dst := make([]int, 0, g.N()+1)
			return readEveryAS(g, func(rt *RouteTable, x int) {
				if len(rt.AppendPath(dst, x)) != rt.PathLen(x)+1 {
					t.Fatalf("AS%d's path to %d disagrees with its length", x, rt.Dest)
				}
			})
		},
	}
}

// guardGraph is the 126-AS internet the measurements run on.
func guardGraph(t *testing.T) *Graph {
	t.Helper()
	cfg := DefaultSynthConfig()
	cfg.Tier2, cfg.Stubs = 20, 100
	g, err := Synthesize(cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// readEveryAS measures read on every AS of g toward its last AS, a stub,
// and toward AS 0, a tier-1.
func readEveryAS(g *Graph, read func(rt *RouteTable, x int)) float64 {
	stub, tier1 := g.RoutesTo(g.N()-1), g.RoutesTo(0)
	return testing.AllocsPerRun(10, func() {
		for _, rt := range [...]*RouteTable{stub, tier1} {
			for x := 0; x < g.N(); x++ {
				read(rt, x)
			}
		}
	})
}
