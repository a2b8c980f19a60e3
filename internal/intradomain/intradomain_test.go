package intradomain

import (
	"math"
	"math/rand"
	"testing"

	"locind/internal/analytic"
	"locind/internal/netaddr"
	"locind/internal/topology"
)

// LocalPort is the FIB port value meaning "deliver onto the attached
// subnet": topology.NextHops's diagonal.
const LocalPort = -1

func mustNew(t *testing.T, g *topology.Graph) *Network {
	t.Helper()
	n, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewErrors(t *testing.T) {
	if _, err := New(topology.New(0)); err == nil {
		t.Error("empty topology should fail")
	}
	if _, err := New(topology.New(300)); err == nil {
		t.Error("oversized topology should fail")
	}
	disconnected := topology.New(3)
	disconnected.AddEdge(0, 1) //nolint:errcheck
	if _, err := New(disconnected); err == nil {
		t.Error("disconnected topology should fail")
	}
}

func TestAddressPlan(t *testing.T) {
	if SubnetOf(7).String() != "10.7.0.0/16" {
		t.Fatalf("SubnetOf(7) = %v", SubnetOf(7))
	}
	a := AddrAt(7, 300)
	if RouterOf(a) != 7 {
		t.Fatalf("RouterOf(%v) = %d", a, RouterOf(a))
	}
	if RouterOf(netaddr.MustParseAddr("11.0.0.1")) != -1 {
		t.Fatal("out-of-plan address should map to -1")
	}
}

func TestPortsOnChain(t *testing.T) {
	n := mustNew(t, topology.Chain(5))
	// Router 2's ports: toward 0 via 1, toward 4 via 3, local for itself.
	if p, _ := n.Port(2, AddrAt(0, 1)); p != 1 {
		t.Fatalf("port toward 0 = %d", p)
	}
	if p, _ := n.Port(2, AddrAt(4, 1)); p != 3 {
		t.Fatalf("port toward 4 = %d", p)
	}
	if p, _ := n.Port(2, AddrAt(2, 9)); p != LocalPort {
		t.Fatalf("local port = %d", p)
	}
	if _, ok := n.Port(2, netaddr.MustParseAddr("99.1.2.3")); ok {
		t.Fatal("unknown address should miss")
	}
}

func TestDisplacedMirrorsFigure1(t *testing.T) {
	// Figure 1(a): endpoint moves between subnets; a router on the "split"
	// between the two destinations must update, a router whose port is the
	// same for both must not.
	n := mustNew(t, topology.Chain(5))
	from := AddrAt(0, 5)
	to := AddrAt(4, 5)
	// Router 2 forwards 0-ward via 1 and 4-ward via 3: displaced.
	if !n.Displaced(2, from, to) {
		t.Fatal("mid-chain router must be displaced")
	}
	// A move between routers 3 and 4 looks identical from router 0 (both
	// via port 1): not displaced.
	if n.Displaced(0, AddrAt(3, 1), AddrAt(4, 1)) {
		t.Fatal("far router must not be displaced")
	}
}

func TestRenumberUpdateCost(t *testing.T) {
	n := mustNew(t, topology.Chain(5))
	// Moving end to end displaces every router: each either flips
	// left/right or gains/loses the local subnet... routers 1-3 flip sides,
	// routers 0 and 4 swap local/transit.
	routers, frac := n.RenumberUpdateCost(0, 4)
	if routers != 5 || frac != 1 {
		t.Fatalf("end-to-end cost = %d (%v)", routers, frac)
	}
	// Moving between adjacent routers 0->1: routers 0,1 change (local),
	// routers 2..4 keep port 1 for both subnets: 2 updates.
	routers, _ = n.RenumberUpdateCost(0, 1)
	if routers != 2 {
		t.Fatalf("adjacent move cost = %d", routers)
	}
}

// The address-plan FIB computation must agree exactly with the abstract
// §5 enumeration in internal/analytic, on every toy topology.
func TestAggregateCostMatchesAnalytic(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    func() *topology.Graph
	}{
		{"chain", func() *topology.Graph { return topology.Chain(17) }},
		{"clique", func() *topology.Graph { return topology.Clique(12) }},
		{"tree", func() *topology.Graph { return topology.BinaryTree(15) }},
		{"star", func() *topology.Graph { return topology.Star(14) }},
		{"ring", func() *topology.Graph { return topology.Ring(10) }},
	} {
		got := mustNew(t, tc.g()).AggregateRenumberCost()
		want := analytic.ExactNameBased(tc.g()).UpdateCost
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: intradomain %v vs analytic %v", tc.name, got, want)
		}
	}
}

func TestMoveWithHostRoutes(t *testing.T) {
	n := mustNew(t, topology.Chain(5))
	addr := AddrAt(0, 5) // host born at router 0
	// Host moves to router 4 keeping its address: every router's match for
	// addr must now point toward 4.
	updated := n.MoveWithHostRoutes(addr, 4)
	if updated == 0 {
		t.Fatal("moving across the chain must update routers")
	}
	for r := 0; r < n.N(); r++ {
		want := LocalPort
		if r != 4 {
			// Next hop toward 4 on a chain is r+1.
			want = r + 1
		}
		got, ok := n.Port(r, addr)
		if !ok || got != want {
			t.Fatalf("router %d forwards addr to %d, want %d", r, got, want)
		}
	}
	// Other hosts in 10.0/16 still route toward router 0.
	if p, _ := n.Port(2, AddrAt(0, 77)); p != 1 {
		t.Fatal("subnet neighbors must be unaffected")
	}
	if n.TotalHostRoutes() == 0 {
		t.Fatal("host routes must exist after the move")
	}
	// Moving home again cleans the exceptions up.
	n.MoveWithHostRoutes(addr, 0)
	if n.TotalHostRoutes() != 0 {
		t.Fatalf("stale host routes remain: %d", n.TotalHostRoutes())
	}
}

// TestHostRouteGrowth reproduces the §6.2.2 FIB-size intuition: with many
// mobile hosts away from home, routers accumulate one /32 per displaced
// host.
func TestHostRouteGrowth(t *testing.T) {
	n := mustNew(t, topology.Clique(8))
	rng := rand.New(rand.NewSource(4))
	hosts := make([]netaddr.Addr, 40)
	at := make([]int, 40)
	for i := range hosts {
		at[i] = rng.Intn(8)
		hosts[i] = AddrAt(at[i], uint64(100+i))
	}
	for step := 0; step < 200; step++ {
		i := rng.Intn(len(hosts))
		dst := rng.Intn(8)
		n.MoveWithHostRoutes(hosts[i], dst)
		at[i] = dst
	}
	away := 0
	for i := range hosts {
		if RouterOf(hosts[i]) != at[i] {
			away++
		}
	}
	// In a clique every router needs an exception for every away host
	// except trivial coincidences; total host routes ≈ away × N (give the
	// bound some slack for hosts that happen to be home).
	total := n.TotalHostRoutes()
	if total < away {
		t.Fatalf("host routes %d below away-host count %d", total, away)
	}
	t.Logf("%d hosts away, %d total host routes across 8 routers", away, total)
}

func TestIndirectionStretch(t *testing.T) {
	n := mustNew(t, topology.Chain(5))
	// src=0, home=2, cur=4: via home = 2+2 = 4, direct = 4: stretch 0
	// (home on the path).
	if s := n.IndirectionStretch(0, 2, 4); s != 0 {
		t.Fatalf("on-path home stretch = %d", s)
	}
	// src=4, home=0, cur=4: via home = 4+4 = 8, direct 0: stretch 8.
	if s := n.IndirectionStretch(4, 0, 4); s != 8 {
		t.Fatalf("worst-case stretch = %d", s)
	}
}

// The equivalence with the abstract enumeration must hold on arbitrary
// connected topologies, not just the toys.
func TestAggregateCostMatchesAnalyticRandom(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(24)
		g := topology.PreferentialAttachment(n, 1+rng.Intn(2), rng)
		got := mustNew(t, g).AggregateRenumberCost()
		want := analytic.ExactNameBased(g).UpdateCost
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("seed %d (n=%d): intradomain %v vs analytic %v", seed, n, got, want)
		}
	}
}

// IndirectionStretch returns the §5-style additive stretch of routing via a
// home router: dist(src, home) + dist(home, cur) - dist(src, cur), in hops.
func (n *Network) IndirectionStretch(src, home, cur int) int {
	hops := n.g.AllPairsHops()
	direct := hops[src][cur]
	viaHome := hops[src][home] + hops[home][cur]
	return viaHome - direct
}

// The per-move computation below is the oracle AggregateRenumberCost is held
// to: for each (src, dst) it asks every router's FIB about both addresses.

// Displaced reports whether a host's move from one address to another
// changes router r's forwarding behaviour — the §3.1 displacement test.
func (n *Network) Displaced(r int, from, to netaddr.Addr) bool {
	p1, ok1 := n.Port(r, from)
	p2, ok2 := n.Port(r, to)
	return ok1 && ok2 && p1 != p2
}

// RenumberUpdateCost returns the number of routers displaced by a host
// moving from router src's subnet to router dst's (taking a fresh address
// there), and the aggregate fraction of the domain's routers updated.
func (n *Network) RenumberUpdateCost(src, dst int) (routers int, fraction float64) {
	from := AddrAt(src, 1)
	to := AddrAt(dst, 1)
	for r := 0; r < n.N(); r++ {
		if n.Displaced(r, from, to) {
			routers++
		}
	}
	return routers, float64(routers) / float64(n.N())
}

// aggregateRenumberCostPerMove sums RenumberUpdateCost over every move.
func (n *Network) aggregateRenumberCostPerMove() float64 {
	total := 0.0
	nn := n.N()
	for src := 0; src < nn; src++ {
		for dst := 0; dst < nn; dst++ {
			if src == dst {
				continue
			}
			_, frac := n.RenumberUpdateCost(src, dst)
			total += frac
		}
	}
	// Uniform i.i.d. (src, dst) including self-moves, matching the §5
	// Markov process: self-moves contribute zero updates.
	return total / float64(nn*nn)
}

// AggregateRenumberCost must equal the per-move oracle bit for bit on
// RunIntradomain's topologies and two PA graphs, and keep equalling it once
// /32 host routes cover some subnets' first host addresses: the port table
// reads the FIBs, not the shortest-path next hops.
func TestAggregateCostMatchesPerMoveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct {
		name string
		g    *topology.Graph
	}{
		{"chain-17", topology.Chain(17)},
		{"grid-6x6", topology.Grid(6, 6)},
		{"tree-31", topology.BinaryTree(31)},
		{"pa-40", topology.PreferentialAttachment(40, 2, rng)},
		{"pa-90", topology.PreferentialAttachment(90, 1, rng)},
	} {
		n := mustNew(t, tc.g)
		pristine := n.AggregateRenumberCost()
		if want := n.aggregateRenumberCostPerMove(); pristine != want {
			t.Fatalf("%s: AggregateRenumberCost = %v, oracle %v", tc.name, pristine, want)
		}
		for i := 0; i < 4; i++ {
			n.MoveWithHostRoutes(AddrAt(rng.Intn(n.N()), 1), rng.Intn(n.N()))
		}
		if n.TotalHostRoutes() == 0 {
			t.Fatalf("%s: no host routes installed", tc.name)
		}
		got, want := n.AggregateRenumberCost(), n.aggregateRenumberCostPerMove()
		if got != want {
			t.Fatalf("%s with host routes: AggregateRenumberCost = %v, oracle %v", tc.name, got, want)
		}
		if got == pristine {
			t.Fatalf("%s: host routes left the cost at %v", tc.name, got)
		}
	}
}
