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
// allocation-free.
func allocGuardHarness() map[string]func(t *testing.T) float64 {
	return map[string]func(t *testing.T) float64{
		"Graph.RoutesToInto": func(t *testing.T) float64 {
			cfg := DefaultSynthConfig()
			cfg.Tier2, cfg.Stubs = 20, 100
			g, err := Synthesize(cfg, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			var rt RouteTable
			pass := func() {
				for d := 0; d < g.N(); d++ {
					g.RoutesToInto(&rt, d)
				}
			}
			pass()
			return testing.AllocsPerRun(10, pass)
		},
	}
}
