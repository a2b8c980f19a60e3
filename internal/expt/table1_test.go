package expt

import (
	"math"
	"math/rand"
	"testing"

	"locind/internal/topology"
)

// simulatePerStep is the statistical oracle for Table 1's simulation column:
// the §5.1 Markov process run on its own, an endpoint hopping to a uniformly
// random router each step (self-moves allowed), every router's next hop
// compared at every step. It returns the name-based update cost and its
// standard error over the per-trial means.
func simulatePerStep(g *topology.Graph, trials, stepsPerTrial int, rng *rand.Rand) (mean, stderr float64) {
	n := g.N()
	next := g.NextHops()
	var sum, sumSq float64
	for tr := 0; tr < trials; tr++ {
		loc := rng.Intn(n)
		trial := 0.0
		for s := 0; s < stepsPerTrial; s++ {
			to := rng.Intn(n)
			changed := 0
			for k := 0; k < n; k++ {
				if next[loc][k] != next[to][k] {
					changed++
				}
			}
			trial += float64(changed) / float64(n)
			loc = to
		}
		trial /= float64(stepsPerTrial)
		sum += trial
		sumSq += trial * trial
	}
	mean = sum / float64(trials)
	variance := (sumSq - float64(trials)*mean*mean) / float64(trials-1)
	return mean, math.Sqrt(variance / float64(trials))
}

// TestTable1SimMatchesPerStepOracle holds RunTable1's simulation column to
// the per-step oracle run from an independent RNG with the same budget, at
// five seeds and two sizes: the two estimates must differ by at most three
// standard errors of their difference (√2 times the oracle's).
func TestTable1SimMatchesPerStepOracle(t *testing.T) {
	builders := map[string]func(int) *topology.Graph{
		"chain":       topology.Chain,
		"clique":      topology.Clique,
		"binary-tree": topology.BinaryTree,
		"star":        topology.Star,
	}
	const trials, steps = 100, 500
	worst := 0.0
	for _, n := range []int{63, 20} {
		for _, seed := range []int64{20140817, 1, 7, 99, 424242} {
			oracle := rand.New(rand.NewSource(^seed))
			for _, row := range RunTable1(n, trials, steps, seed).Rows {
				want, se := simulatePerStep(builders[row.Topology](n), trials, steps, oracle)
				z := math.Abs(row.SimNB.UpdateCost-want) / (math.Sqrt2 * se)
				worst = max(worst, z)
				if z > 3 {
					t.Errorf("n %d, seed %d, %s: sim %v, oracle %v ± %v (%.1f standard errors)",
						n, seed, row.Topology, row.SimNB.UpdateCost, want, se, z)
				}
			}
		}
	}
	t.Logf("largest gap: %.2f standard errors", worst)
}
