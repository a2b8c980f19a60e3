package analytic

import (
	"math/rand"
	"testing"

	"locind/internal/topology"
)

// simulatePerStep is the Simulate that tabulating the per-pair change count
// replaced, verbatim: it compares every router's port at every step.
func simulatePerStep(g *topology.Graph, trials, stepsPerTrial int, rng *rand.Rand) (indirection, nameBased Result) {
	n := g.N()
	if n == 0 || trials <= 0 || stepsPerTrial <= 0 {
		return Result{}, Result{}
	}
	pm := ports(g)
	ap := g.AllPairsHops()

	var stretchSum float64
	var updateSum float64
	samples := 0
	for tr := 0; tr < trials; tr++ {
		home := rng.Intn(n)
		loc := rng.Intn(n)
		for s := 0; s < stepsPerTrial; s++ {
			next := rng.Intn(n)
			// Indirection stretch: distance home -> current location.
			stretchSum += float64(ap[home][next])
			// Name-based: fraction of routers whose port changed.
			if next != loc {
				changed := 0
				for k := 0; k < n; k++ {
					if pm[loc][k] != pm[next][k] {
						changed++
					}
				}
				updateSum += float64(changed) / float64(n)
			}
			loc = next
			samples++
		}
	}
	indirection = Result{
		Stretch:    stretchSum / float64(samples),
		UpdateCost: 1 / float64(n),
	}
	nameBased = Result{
		Stretch:    0,
		UpdateCost: updateSum / float64(samples),
	}
	return indirection, nameBased
}

// TestSimulateMatchesPerStepOracle runs Simulate and the per-step oracle over
// Table 1's four topologies in RunTable1's order, each from one RNG shared
// across the four as RunTable1 shares it, at five seeds and two sizes, plus a
// ring and a preferential-attachment graph. Results must agree float for float (==), and so
// must the next draw of each RNG: both consume the stream the same way.
func TestSimulateMatchesPerStepOracle(t *testing.T) {
	for _, n := range []int{63, 20} {
		graphs := []*topology.Graph{
			topology.Chain(n), topology.Clique(n), topology.BinaryTree(n), topology.Star(n),
			topology.Ring(n), topology.PreferentialAttachment(n, 2, rand.New(rand.NewSource(int64(n)))),
		}
		for _, seed := range []int64{20140817, 1, 7, 99, 424242} {
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for i, g := range graphs {
				gi, gn := Simulate(g, 100, 500, got)
				wi, wn := simulatePerStep(g, 100, 500, want)
				if gi != wi || gn != wn {
					t.Fatalf("n %d, seed %d, graph %d: Simulate (%+v, %+v), per-step (%+v, %+v)", n, seed, i, gi, gn, wi, wn)
				}
			}
			if a, b := got.Int63(), want.Int63(); a != b {
				t.Fatalf("n %d, seed %d: the RNGs parted: next draws %d and %d", n, seed, a, b)
			}
		}
	}
}
