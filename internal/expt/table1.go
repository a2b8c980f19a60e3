package expt

import (
	"fmt"
	"math/rand"
	"strings"

	"locind/internal/analytic"
	"locind/internal/netsim"
	"locind/internal/topology"
)

// Table1Result reproduces Table 1: the stretch vs aggregate-update-cost
// trade-off on the four toy topologies, three ways — the paper's printed
// asymptotics, the exact finite-n enumeration, and Monte Carlo simulation.
type Table1Result struct {
	N    int
	Rows []Table1ResultRow
}

// Table1ResultRow is one topology's operating points.
type Table1ResultRow struct {
	Topology string
	Routers  int

	PaperInd analytic.Result
	PaperNB  analytic.Result

	ExactInd       analytic.Result
	ExactNB        analytic.Result
	ExactNBTransit analytic.Result
	SimNB          analytic.Result
}

// RunTable1 computes Table 1 at size n with the given simulation budget. The
// simulation column is netsim's name-based router: the mean AggUpdateCost of
// trials runs of a steps-move netsim.Scenario, one NameRouting per topology
// shared by its trials, every run drawing from one RNG seeded with seed.
func RunTable1(n, trials, steps int, seed int64) Table1Result {
	rng := rand.New(rand.NewSource(seed))
	paper := analytic.PaperTable1(n)
	graphs := map[string]*topology.Graph{
		"chain":       topology.Chain(n),
		"clique":      topology.Clique(n),
		"binary-tree": topology.BinaryTree(n),
		"star":        topology.Star(n), // n leaves + hub = n+1 routers
	}
	sc := netsim.Scenario{Moves: steps}
	res := Table1Result{N: n}
	for _, p := range paper {
		g := graphs[p.Topology]
		net, err := netsim.NewNetwork(g)
		if err != nil {
			// The four builders give connected graphs for every n >= 1.
			panic(fmt.Sprintf("expt: table1 %s at n=%d: %v", p.Topology, n, err))
		}
		nr := netsim.NewNameRouting(net)
		sim := 0.0
		for t := 0; t < trials; t++ {
			sim += sc.Run(net, nr, rng).AggUpdateCost
		}
		if trials > 0 {
			sim /= float64(trials)
		}
		res.Rows = append(res.Rows, Table1ResultRow{
			Topology:       p.Topology,
			Routers:        g.N(),
			PaperInd:       p.Indirection,
			PaperNB:        p.NameBased,
			ExactInd:       analytic.ExactIndirection(g),
			ExactNB:        analytic.ExactNameBased(g),
			ExactNBTransit: analytic.ExactNameBasedTransitOnly(g),
			SimNB:          analytic.Result{UpdateCost: sim},
		})
	}
	return res
}

// Render prints the table in the paper's layout with the three estimates
// side by side.
func (r Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — path stretch vs aggregate update cost (n=%d)\n", r.N)
	fmt.Fprintf(&b, "%-12s %8s | %21s | %21s | %12s\n",
		"topology", "routers", "indirection (stretch/upd)", "name-based (stretch/upd)", "sim upd")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %8d | paper %7.3f %7.4f | paper %7.3f %7.4f |\n",
			row.Topology, row.Routers,
			row.PaperInd.Stretch, row.PaperInd.UpdateCost,
			row.PaperNB.Stretch, row.PaperNB.UpdateCost)
		fmt.Fprintf(&b, "%-12s %8s | exact %7.3f %7.4f | exact %7.3f %7.4f | %12.4f\n",
			"", "",
			row.ExactInd.Stretch, row.ExactInd.UpdateCost,
			row.ExactNB.Stretch, row.ExactNB.UpdateCost,
			row.SimNB.UpdateCost)
		if row.Topology == "star" {
			fmt.Fprintf(&b, "%-12s %8s |   (transit-only convention: update %7.4f ≈ paper's 1/(n+1))\n",
				"", "", row.ExactNBTransit.UpdateCost)
		}
	}
	b.WriteString("\nindirection update cost is always 1/n (one home agent); name-based stretch is always 0.\n")
	return b.String()
}
