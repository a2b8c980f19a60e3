package asgraph

import (
	"math/rand"
	"reflect"
	"testing"
)

// tinyInternet builds the canonical 7-AS example:
//
//	  0 ---- 1        (tier-1 peers)
//	 / \    / \
//	2   3  4   5      (customers of the tier-1s; 3--4 peer)
//	|            \
//	6             (6 is 2's customer)
//
// Relationships: 2,3 buy from 0; 4,5 buy from 1; 6 buys from 2; 3--4 peer.
func tinyInternet(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(7)
	mustC2P := func(c, p int) {
		if err := g.AddC2P(c, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddPeer(0, 1); err != nil {
		t.Fatal(err)
	}
	mustC2P(2, 0)
	mustC2P(3, 0)
	mustC2P(4, 1)
	mustC2P(5, 1)
	mustC2P(6, 2)
	if err := g.AddPeer(3, 4); err != nil {
		t.Fatal(err)
	}
	return g
}

// classOf and nextHopOf read x's route through the table's read path, the
// one PathLen and AppendPath take.
func classOf(rt *RouteTable, x int) RouteClass { c, _, _ := rt.route(x); return c }

func nextHopOf(rt *RouteTable, x int) int32 { _, _, p := rt.route(x); return p }

func TestRelOf(t *testing.T) {
	g := tinyInternet(t)
	if r, ok := g.RelOf(0, 2); !ok || r != RelCustomer {
		t.Errorf("RelOf(0,2) = %v,%v", r, ok)
	}
	if r, ok := g.RelOf(2, 0); !ok || r != RelProvider {
		t.Errorf("RelOf(2,0) = %v,%v", r, ok)
	}
	if r, ok := g.RelOf(3, 4); !ok || r != RelPeer {
		t.Errorf("RelOf(3,4) = %v,%v", r, ok)
	}
	if _, ok := g.RelOf(2, 5); ok {
		t.Error("RelOf(2,5) should not exist")
	}
	if d := len(g.providers[0]) + len(g.customers[0]) + len(g.peers[0]); d != 3 {
		t.Errorf("AS0 has %d neighbours, want 3", d)
	}
}

func TestAddErrors(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddC2P(0, 0); err == nil {
		t.Error("self c2p should fail")
	}
	if err := g.AddC2P(0, 5); err == nil {
		t.Error("out of range should fail")
	}
	if err := g.AddC2P(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddC2P(0, 1); err == nil {
		t.Error("duplicate c2p should fail")
	}
	if err := g.AddPeer(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPeer(2, 1); err == nil {
		t.Error("duplicate peering should fail")
	}
}

func TestRoutesToClasses(t *testing.T) {
	g := tinyInternet(t)
	rt := g.RoutesTo(6)

	// The destination itself.
	if classOf(rt, 6) != ClassSelf || rt.PathLen(6) != 0 || nextHopOf(rt, 6) != 6 {
		t.Fatalf("dest route wrong: %v %d %d", classOf(rt, 6), rt.PathLen(6), nextHopOf(rt, 6))
	}
	// 2 hears 6 as a customer route.
	if classOf(rt, 2) != ClassCustomer || rt.PathLen(2) != 1 {
		t.Fatalf("AS2: %v len %d", classOf(rt, 2), rt.PathLen(2))
	}
	// 0 hears it up the chain: customer route of length 2.
	if classOf(rt, 0) != ClassCustomer || rt.PathLen(0) != 2 {
		t.Fatalf("AS0: %v len %d", classOf(rt, 0), rt.PathLen(0))
	}
	// 1 hears from peer 0 (customer route at 0 is exported to peers).
	if classOf(rt, 1) != ClassPeer || rt.PathLen(1) != 3 {
		t.Fatalf("AS1: %v len %d", classOf(rt, 1), rt.PathLen(1))
	}
	// 3 hears only from its provider 0 (peer 4 has a provider route, not
	// exportable to a peer).
	if classOf(rt, 3) != ClassProvider || rt.PathLen(3) != 3 {
		t.Fatalf("AS3: %v len %d", classOf(rt, 3), rt.PathLen(3))
	}
	// 5 must go up to 1, across the peering to 0, then down: provider route.
	if classOf(rt, 5) != ClassProvider || rt.PathLen(5) != 4 {
		t.Fatalf("AS5: %v len %d", classOf(rt, 5), rt.PathLen(5))
	}
	// All paths must be valley-free.
	for x := 0; x < g.N(); x++ {
		p := rt.Path(x)
		if p == nil {
			t.Fatalf("AS%d unreachable", x)
		}
		if !g.ValleyFree(p) {
			t.Fatalf("AS%d path %v not valley-free", x, p)
		}
		if len(p) != rt.PathLen(x)+1 {
			t.Fatalf("AS%d path %v length mismatch with %d", x, p, rt.PathLen(x))
		}
		if p[0] != x || p[len(p)-1] != 6 {
			t.Fatalf("AS%d path endpoints wrong: %v", x, p)
		}
	}
}

// Peer routes must not be re-exported to peers: 5's route to 6 cannot be
// 5-4-3-0-2-6 (4 would have to export a peer-learned route to its peer...
// actually 4's route via peer 3 does not exist either). Verify by making a
// topology where the only non-valley path is tempting.
func TestNoValleyPaths(t *testing.T) {
	// 0 and 1 are providers of 2; 0--1 do NOT peer. A packet from 1's other
	// customer 3 to 0's customer 4 must not traverse 2 (that is a valley).
	g := NewGraph(5)
	g.AddC2P(2, 0) //nolint:errcheck
	g.AddC2P(2, 1) //nolint:errcheck
	g.AddC2P(3, 1) //nolint:errcheck
	g.AddC2P(4, 0) //nolint:errcheck
	rt := g.RoutesTo(4)
	if rt.PathLen(3) >= 0 {
		t.Fatalf("AS3 should have no route to 4 (only a valley exists), got %v", rt.Path(3))
	}
	if rt.PathLen(2) < 0 {
		t.Fatal("AS2 should reach 4 via provider 0")
	}
}

func TestRoutesToUnreachable(t *testing.T) {
	g := NewGraph(3)
	g.AddC2P(1, 0) //nolint:errcheck
	rt := g.RoutesTo(1)
	if rt.PathLen(2) >= 0 {
		t.Fatal("isolated AS should be unreachable")
	}
	if rt.PathLen(2) != -1 || rt.Path(2) != nil {
		t.Fatal("unreachable accessors wrong")
	}
}

func TestRoutesToPrefersCustomerOverShorterPeer(t *testing.T) {
	// 0: provider of 1; 1 provider of 2 (dest); 0 peers with 2 directly.
	// Dest 2: AS0 has a customer route 0-1-2 (len 2) and a peer route 0-2
	// (len 1). Policy must pick the customer route.
	g := NewGraph(3)
	g.AddC2P(1, 0)  //nolint:errcheck
	g.AddC2P(2, 1)  //nolint:errcheck
	g.AddPeer(0, 2) //nolint:errcheck
	rt := g.RoutesTo(2)
	if classOf(rt, 0) != ClassCustomer || rt.PathLen(0) != 2 {
		t.Fatalf("AS0 selected %v len %d; want customer len 2", classOf(rt, 0), rt.PathLen(0))
	}
}

func TestRoutesToTieBreakLowestNextHop(t *testing.T) {
	// Dest 3 reachable from 0 via two equal-length customer routes through
	// 1 and 2; the tie must break to next hop 1.
	g := NewGraph(4)
	g.AddC2P(1, 0) //nolint:errcheck
	g.AddC2P(2, 0) //nolint:errcheck
	g.AddC2P(3, 1) //nolint:errcheck
	g.AddC2P(3, 2) //nolint:errcheck
	rt := g.RoutesTo(3)
	if nextHopOf(rt, 0) != 1 {
		t.Fatalf("tie-break chose %d, want 1", nextHopOf(rt, 0))
	}
}

func TestShortestUndirectedHops(t *testing.T) {
	g := tinyInternet(t)
	d := g.ShortestUndirectedHops(6)
	if d[6] != 0 || d[2] != 1 || d[0] != 2 || d[3] != 3 || d[4] != 4 {
		t.Fatalf("hops = %v", d)
	}
	// Physical shortest ignores policy: 5 is at distance 4 via 1-0 or 1-4... via 1: 6-2-0-1-5.
	if d[5] != 4 {
		t.Fatalf("d[5] = %d", d[5])
	}
	bad := g.ShortestUndirectedHops(-1)
	for _, x := range bad {
		if x != -1 {
			t.Fatal("bad source should mark all unreachable")
		}
	}
}

func TestValleyFree(t *testing.T) {
	g := tinyInternet(t)
	cases := []struct {
		path []int
		want bool
	}{
		{[]int{6, 2, 0, 1, 5}, true}, // up, up, peer, down
		{[]int{5, 1, 0, 2, 6}, true}, // reverse
		{[]int{3, 0, 2, 6}, true},    // up, down, down
		{[]int{2, 0, 1, 4}, true},    // up, peer, down
		{[]int{0, 2, 0}, false},      // down then up: valley (repeated AS aside)
		{[]int{3, 4, 1, 5}, false},   // peer then up: invalid
		{[]int{2, 5}, false},         // not adjacent
		{[]int{6}, true},             // trivial
	}
	for _, c := range cases {
		if got := g.ValleyFree(c.path); got != c.want {
			t.Errorf("ValleyFree(%v) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestSynthesize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultSynthConfig()
	cfg.Tier2 = 60
	cfg.Stubs = 400
	g, err := Synthesize(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != cfg.Tier1+cfg.Tier2+cfg.Stubs {
		t.Fatalf("N = %d", g.N())
	}
	// Tier-1 clique.
	for i := 0; i < cfg.Tier1; i++ {
		for j := 0; j < i; j++ {
			if r, ok := g.RelOf(i, j); !ok || r != RelPeer {
				t.Fatalf("tier-1 %d,%d not peered", i, j)
			}
		}
		if g.Tier(i) != 1 {
			t.Fatalf("tier of %d = %d", i, g.Tier(i))
		}
	}
	// Every stub has a provider and universal reachability holds from a
	// sample of destinations.
	stubStart := cfg.Tier1 + cfg.Tier2
	for i := stubStart; i < g.N(); i++ {
		if len(g.Providers(i)) == 0 {
			t.Fatalf("stub %d has no provider", i)
		}
	}
	for _, d := range []int{0, stubStart, stubStart + 123, g.N() - 1} {
		rt := g.RoutesTo(d)
		for x := 0; x < g.N(); x++ {
			if rt.PathLen(x) < 0 {
				t.Fatalf("AS%d cannot reach %d", x, d)
			}
			if !g.ValleyFree(rt.Path(x)) {
				t.Fatalf("path %v to %d not valley-free", rt.Path(x), d)
			}
		}
	}
}

func TestSynthesizeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Synthesize(SynthConfig{Tier1: 1, Tier2: 1}, rng); err == nil {
		t.Error("too few tier-1 should fail")
	}
	if _, err := Synthesize(SynthConfig{Tier1: 2, Tier2: 0}, rng); err == nil {
		t.Error("no tier-2 should fail")
	}
}

func TestSynthesizeDeterminism(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.Tier2, cfg.Stubs = 40, 200
	g1, err := Synthesize(cfg, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Synthesize(cfg, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < g1.N(); x++ {
		if g1.Region(x) != g2.Region(x) || !reflect.DeepEqual(g1.providers[x], g2.providers[x]) ||
			!reflect.DeepEqual(g1.customers[x], g2.customers[x]) || !reflect.DeepEqual(g1.peers[x], g2.peers[x]) {
			t.Fatalf("divergence at AS%d", x)
		}
	}
}

func TestRegionsQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultSynthConfig()
	cfg.Tier2, cfg.Stubs = 40, 300
	g, err := Synthesize(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for r := Region(0); r < numRegions; r++ {
		total += len(g.ASesInRegion(r))
		for _, x := range g.StubsInRegion(r) {
			if g.Tier(x) != 3 || g.Region(x) != r {
				t.Fatalf("StubsInRegion(%v) returned AS%d tier=%d region=%v", r, x, g.Tier(x), g.Region(x))
			}
		}
	}
	if total != g.N() {
		t.Fatalf("regions partition %d of %d ASes", total, g.N())
	}
}

func TestRelString(t *testing.T) {
	if RelCustomer.String() != "customer" || RelPeer.String() != "peer" || RelProvider.String() != "provider" {
		t.Error("Rel names wrong")
	}
	if Rel(9).String() == "" || RouteClass(9).String() == "" || Region(99).String() == "" {
		t.Error("out-of-range strings should still render")
	}
	if ClassCustomer.String() != "customer" || ClassSelf.String() != "self" || ClassNone.String() != "none" {
		t.Error("RouteClass names wrong")
	}
	if NorthAmerica.String() != "NA" || Africa.String() != "AF" {
		t.Error("Region codes wrong")
	}
}

// ValleyFree reports whether the AS path (a sequence of AS IDs) obeys the
// valley-free property under g's relationships: zero or more customer→
// provider steps, at most one peer step, then zero or more provider→
// customer steps. Used by tests as an independent check on RoutesTo.
func (g *Graph) ValleyFree(path []int) bool {
	const (
		up = iota
		peered
		down
	)
	state := up
	for i := 0; i+1 < len(path); i++ {
		rel, ok := g.RelOf(path[i], path[i+1])
		if !ok {
			return false
		}
		switch rel {
		case RelProvider: // step up
			if state != up {
				return false
			}
		case RelPeer:
			if state != up {
				return false
			}
			state = peered
		case RelCustomer: // step down
			state = down
		}
	}
	return true
}
