package analytic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"locind/internal/topology"
)

// randConnected draws a random connected graph: a PA backbone guarantees
// connectivity, plus noise edges.
func randConnected(rng *rand.Rand) *topology.Graph {
	n := 8 + rng.Intn(40)
	g := topology.PreferentialAttachment(n, 1+rng.Intn(2), rng)
	for extra := rng.Intn(n); extra > 0; extra-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b && !g.HasEdge(a, b) {
			g.AddEdge(a, b) //nolint:errcheck
		}
	}
	return g
}

// Property: on arbitrary connected topologies the general laws of §5 hold:
// 0 <= name-based update cost <= 1, transit-only cost <= all-ports cost, and
// indirection stretch is bounded by the diameter. (netsim's tests hold its
// Monte Carlo to the enumeration on graphs drawn the same way.)
func TestExactLawsOnRandomGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randConnected(rng)

		ind := ExactIndirection(g)
		nb := ExactNameBased(g)
		transit := ExactNameBasedTransitOnly(g)
		if nb.UpdateCost < 0 || nb.UpdateCost > 1 {
			return false
		}
		if transit.UpdateCost > nb.UpdateCost+1e-12 {
			return false
		}
		diameter := 0
		for _, row := range g.AllPairsHops() {
			for _, d := range row {
				diameter = max(diameter, d)
			}
		}
		return ind.Stretch <= float64(diameter)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
