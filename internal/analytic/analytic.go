// Package analytic implements the expository model of §5: the path-stretch
// versus aggregate-update-cost trade-off of indirection routing and
// name-based routing on toy topologies, two ways — the closed forms printed
// in Table 1, and exact finite-n computation by enumeration over any
// topology's next-hop table (topology.NextHops). Monte Carlo simulation of
// the random-mobility Markov process is netsim's, checked against the
// enumeration. The two agree asymptotically; where the paper's printed star
// formula differs from the enumeration (it counts only the hub's update),
// EXPERIMENTS.md records the difference.
package analytic

import (
	"math"

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
	same, _ := portSquares(g)
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 - same[k]/float64(n*n)
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
	_, same := portSquares(g)
	total := 0.0
	for k := 0; k < n; k++ {
		notK := float64(n-1) / float64(n)
		total += notK*notK - same[k]/float64(n*n)
	}
	return Result{Stretch: 0, UpdateCost: total / float64(n)}
}

// portSquares returns, for every router k, Σ_p c_{k,p}² over all of k's
// ports and over its transit ports only, where c_{k,p} counts the locations
// k forwards toward through port p. The local port -1 is not a transit port.
// Every sum is an integer, so it is exact in float64 whatever the order.
func portSquares(g *topology.Graph) (all, transit []float64) {
	n := g.N()
	next := g.NextHops()
	all, transit = make([]float64, n), make([]float64, n)
	counts := make([]int, n+1) // counts[p+1]: locations behind port p
	for k := 0; k < n; k++ {
		clear(counts)
		for l := 0; l < n; l++ {
			counts[next[l][k]+1]++
		}
		for i, c := range counts {
			sq := float64(c) * float64(c)
			all[k] += sq
			if i > 0 {
				transit[k] += sq
			}
		}
	}
	return all, transit
}
