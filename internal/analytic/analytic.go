// Package analytic implements the expository model of §5: the path-stretch
// versus aggregate-update-cost trade-off of indirection routing and
// name-based routing on toy topologies, three ways — the closed forms
// printed in Table 1, exact finite-n computation by enumeration over any
// topology, and Monte Carlo simulation of the random-mobility Markov
// process. The three agree asymptotically; where the paper's printed star
// formula differs from the enumeration (it counts only the hub's update),
// EXPERIMENTS.md records the difference.
package analytic

import (
	"math"
	"math/rand"

	"locind/internal/topology"
)

// Result is one (stretch, aggregate update cost) operating point. Stretch
// is additive hop-count distance (the paper's §5.1.1 definition); update
// cost is the expected fraction of routers updated per mobility event.
type Result struct {
	Stretch    float64
	UpdateCost float64
}

// Table1Row reproduces one row of Table 1: the paper's printed asymptotic
// expressions for both architectures at a given n.
type Table1Row struct {
	Topology    string
	N           int // routers (the star row uses n+1 routers, per the paper)
	Indirection Result
	NameBased   Result
}

// PaperTable1 evaluates the printed Table 1 formulas at size n.
//
//	Chain:        indirection (n/3, 1/n),        name-based (0, 1/3)
//	Clique:       indirection (1, 1/n),          name-based (0, 1)
//	Binary tree:  indirection (2·log2 n, 1/n),   name-based (0, 2·log2 n/(n-1))
//	Star:         indirection (2, 1/n),          name-based (0, 1/(n+1))
func PaperTable1(n int) []Table1Row {
	log2n := math.Log2(float64(n))
	return []Table1Row{
		{
			Topology:    "chain",
			N:           n,
			Indirection: Result{Stretch: float64(n) / 3, UpdateCost: 1 / float64(n)},
			NameBased:   Result{Stretch: 0, UpdateCost: 1.0 / 3},
		},
		{
			Topology:    "clique",
			N:           n,
			Indirection: Result{Stretch: 1, UpdateCost: 1 / float64(n)},
			NameBased:   Result{Stretch: 0, UpdateCost: 1},
		},
		{
			Topology:    "binary-tree",
			N:           n,
			Indirection: Result{Stretch: 2 * log2n, UpdateCost: 1 / float64(n)},
			NameBased:   Result{Stretch: 0, UpdateCost: 2 * log2n / float64(n-1)},
		},
		{
			Topology:    "star",
			N:           n,
			Indirection: Result{Stretch: 2, UpdateCost: 1 / float64(n)},
			NameBased:   Result{Stretch: 0, UpdateCost: 1 / float64(n+1)},
		},
	}
}

// ports computes, for every location ℓ and router k, the output port of k
// toward an endpoint at ℓ: the BFS next hop (lowest-ID tie-break via
// adjacency order), or -1 for the router's own local port when ℓ == k.
// ports[ℓ][k] is the port at router k.
func ports(g *topology.Graph) [][]int {
	n := g.N()
	out := make([][]int, n)
	for l := 0; l < n; l++ {
		_, parent := g.BFS(l)
		row := make([]int, n)
		for k := 0; k < n; k++ {
			switch {
			case k == l:
				row[k] = -1 // local delivery port
			default:
				row[k] = parent[k] // next hop from k toward l
			}
		}
		out[l] = row
	}
	return out
}

// ExactIndirection computes the exact finite-n indirection operating point
// on any connected topology under the §5 model: home agent H and location
// L both uniform i.i.d. over routers, stretch = E[dist(H, L)], update cost
// = 1/n (only the home agent updates).
func ExactIndirection(g *topology.Graph) Result {
	n := g.N()
	if n == 0 {
		return Result{}
	}
	ap := g.AllPairsHops()
	sum := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum += float64(ap[i][j])
		}
	}
	return Result{
		Stretch:    sum / float64(n*n),
		UpdateCost: 1 / float64(n),
	}
}

// ExactNameBased computes the exact finite-n name-based operating point:
// stretch 0 (every router always has shortest-path state), and the
// aggregate update cost — the expected fraction of routers whose output
// port toward the endpoint changes when it moves from i to j, with (i, j)
// uniform i.i.d. (the §5.1 Markov process allows i == j, a non-move):
//
//	E[update] = (1/n) Σ_k P(port_k(i) ≠ port_k(j))
//	          = (1/n) Σ_k (1 − Σ_p (c_{k,p}/n)²)
//
// where c_{k,p} counts locations mapping to port p at router k. This
// reproduces the chain derivation of §5.1.2 exactly (each router has left,
// right, and local ports).
func ExactNameBased(g *topology.Graph) Result {
	n := g.N()
	if n == 0 {
		return Result{}
	}
	pm := ports(g)
	total := 0.0
	counts := map[int]int{}
	for k := 0; k < n; k++ {
		for p := range counts {
			delete(counts, p)
		}
		for l := 0; l < n; l++ {
			counts[pm[l][k]]++
		}
		same := 0.0
		for _, c := range counts {
			same += float64(c) * float64(c)
		}
		total += 1 - same/float64(n*n)
	}
	return Result{Stretch: 0, UpdateCost: total / float64(n)}
}

// ExactNameBasedTransitOnly computes the update cost under the alternative
// convention that only transit-port changes count — a router whose only
// change is gaining or losing the endpoint on its local port is not
// "updated". A router k then updates on a move i→j iff i ≠ k, j ≠ k, and
// port_k(i) ≠ port_k(j):
//
//	P(update at k) = ((n-1)/n)² − Σ_{p transit} (c_{k,p}/n)².
//
// On the star this matches the paper's printed 1/(n+1) asymptotically: only
// the hub ever changes a transit port, while ExactNameBased (which counts
// local-port changes, like the chain derivation in §5.1.2) gives ≈ 3/(n+1).
func ExactNameBasedTransitOnly(g *topology.Graph) Result {
	n := g.N()
	if n == 0 {
		return Result{}
	}
	pm := ports(g)
	total := 0.0
	counts := map[int]int{}
	for k := 0; k < n; k++ {
		for p := range counts {
			delete(counts, p)
		}
		for l := 0; l < n; l++ {
			counts[pm[l][k]]++
		}
		same := 0.0
		for p, c := range counts {
			if p == -1 {
				continue // the local port is excluded from transit counts
			}
			same += float64(c) * float64(c)
		}
		notK := float64(n-1) / float64(n)
		total += notK*notK - same/float64(n*n)
	}
	return Result{Stretch: 0, UpdateCost: total / float64(n)}
}

// Simulate runs the §5.1 Markov process on g: an endpoint hops to a
// uniformly random router each slot (self-moves allowed, as in the paper's
// transition matrix); a home agent is redrawn uniformly per trial. It
// returns the measured indirection stretch and name-based aggregate update
// cost with their standard errors folded into the sample means. How many
// routers a move changes depends only on its (from, to) pair, so that count
// is tabulated once for all n² pairs, not recounted at every step.
func Simulate(g *topology.Graph, trials, stepsPerTrial int, rng *rand.Rand) (indirection, nameBased Result) {
	n := g.N()
	if n == 0 || trials <= 0 || stepsPerTrial <= 0 {
		return Result{}, Result{}
	}
	pm := ports(g)
	ap := g.AllPairsHops()
	changed := make([]int, n*n) // changed[from*n+to]: routers whose port differs
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			for k := 0; k < n; k++ {
				if pm[from][k] != pm[to][k] {
					changed[from*n+to]++
				}
			}
		}
	}

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
				updateSum += float64(changed[loc*n+next]) / float64(n)
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
