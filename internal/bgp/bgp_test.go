package bgp

import (
	"math/rand"
	"runtime"
	"testing"

	"locind/internal/asgraph"
	"locind/internal/netaddr"
)

func route(prefix string, nh, lp, med int, rel asgraph.Rel, path ...int) Route {
	return Route{
		Prefix:    netaddr.MustParsePrefix(prefix),
		NextHop:   nh,
		LocalPref: lp,
		MED:       med,
		ASPath:    path,
		Rel:       rel,
	}
}

func TestBetterRanking(t *testing.T) {
	base := route("10.0.0.0/16", 5, 0, 0, asgraph.RelPeer, 5, 9, 12)
	cases := []struct {
		name string
		a, b Route
		want bool
	}{
		{"higher localpref wins", route("10.0.0.0/16", 9, 100, 0, asgraph.RelProvider, 9, 1, 2, 3, 4), base, true},
		{"customer beats peer", route("10.0.0.0/16", 9, 0, 0, asgraph.RelCustomer, 9, 1, 2, 3, 4), base, true},
		{"peer beats provider", base, route("10.0.0.0/16", 9, 0, 0, asgraph.RelProvider, 9, 12), true},
		{"shorter path wins in class", route("10.0.0.0/16", 9, 0, 9, asgraph.RelPeer, 9, 12), base, true},
		{"lower MED wins on tie", route("10.0.0.0/16", 9, 0, 0, asgraph.RelPeer, 9, 1, 12), route("10.0.0.0/16", 8, 0, 1, asgraph.RelPeer, 8, 2, 12), true},
		{"lower next hop final tiebreak", route("10.0.0.0/16", 4, 0, 0, asgraph.RelPeer, 4, 1, 12), route("10.0.0.0/16", 7, 0, 0, asgraph.RelPeer, 7, 2, 12), true},
	}
	for _, c := range cases {
		if got := Better(c.a, c.b); got != c.want {
			t.Errorf("%s: Better = %v, want %v", c.name, got, c.want)
		}
		if c.want && Better(c.b, c.a) {
			t.Errorf("%s: Better not antisymmetric", c.name)
		}
	}
}

func TestRoutePathLenOrigin(t *testing.T) {
	r := route("10.0.0.0/16", 5, 0, 0, asgraph.RelPeer, 5, 9, 12)
	if r.PathLen() != 2 {
		t.Errorf("PathLen=%d", r.PathLen())
	}
	if (Route{}).PathLen() != 0 {
		t.Error("empty route has a path length")
	}
	if r.String() == "" {
		t.Error("String should render")
	}
}

func TestRIBBestAndFIB(t *testing.T) {
	p := netaddr.MustParsePrefix("10.0.0.0/16")
	rib := NewRIB([]Route{
		route("10.0.0.0/16", 7, 0, 0, asgraph.RelProvider, 7, 12),
		route("10.0.0.0/16", 5, 0, 0, asgraph.RelPeer, 5, 9, 12),
		route("10.0.0.0/16", 3, 0, 0, asgraph.RelPeer, 3, 8, 11, 12),
	})
	best, ok := rib.Best(p)
	if !ok || best.NextHop != 5 {
		t.Fatalf("Best = %+v, %v; want next hop 5 (peer, shortest)", best, ok)
	}
	if _, ok := rib.Best(netaddr.MustParsePrefix("99.0.0.0/8")); ok {
		t.Fatal("missing prefix should have no best")
	}
	if rib.NumPrefixes() != 1 || rib.NumRoutes() != 3 {
		t.Fatalf("counts: %d prefixes %d routes", rib.NumPrefixes(), rib.NumRoutes())
	}
	if got := rib.Routes(p); len(got) != 3 {
		t.Fatalf("Routes len = %d", len(got))
	}

	fib := rib.DeriveFIB()
	if fib.Len() != 1 {
		t.Fatalf("FIB len = %d", fib.Len())
	}
	port, ok := fib.Port(netaddr.MustParseAddr("10.0.5.5"))
	if !ok || port != 5 {
		t.Fatalf("FIB port = %d, %v", port, ok)
	}
	if _, ok := fib.Port(netaddr.MustParseAddr("99.0.0.1")); ok {
		t.Fatal("uncovered address should miss")
	}
	rt, ok := fib.RouteFor(netaddr.MustParseAddr("10.0.5.5"))
	if !ok || rt.NextHop != 5 {
		t.Fatal("RouteFor wrong")
	}
	if fib.NextHopDegree() != 1 {
		t.Fatalf("NextHopDegree = %d", fib.NextHopDegree())
	}
}

func TestRIBPrefixesSorted(t *testing.T) {
	rib := NewRIB([]Route{
		route("30.0.0.0/8", 1, 0, 0, asgraph.RelPeer, 1, 2),
		route("10.0.0.0/8", 1, 0, 0, asgraph.RelPeer, 1, 2),
		route("20.0.0.0/8", 1, 0, 0, asgraph.RelPeer, 1, 2),
	})
	ps := rib.Prefixes()
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Compare(ps[i]) >= 0 {
			t.Fatalf("prefixes not sorted: %v", ps)
		}
	}
}

func TestFIBLongestPrefixDisplacement(t *testing.T) {
	// Figure 2 at the FIB level: a /24 and /16 with different ports.
	fib := NewRIB([]Route{
		route("22.33.44.0/24", 5, 0, 0, asgraph.RelPeer),
		route("22.33.0.0/16", 3, 0, 0, asgraph.RelPeer),
	}).DeriveFIB()
	p1, _ := fib.Port(netaddr.MustParseAddr("22.33.44.55"))
	p2, _ := fib.Port(netaddr.MustParseAddr("22.33.88.55"))
	if p1 != 5 || p2 != 3 {
		t.Fatalf("ports = %d, %d", p1, p2)
	}
	if fib.NextHopDegree() != 2 {
		t.Fatalf("degree = %d", fib.NextHopDegree())
	}
	count := 0
	fib.Walk(func(netaddr.Prefix, Route) bool { count++; return true })
	if count != 2 {
		t.Fatalf("walk visited %d", count)
	}
}

func TestNewPrefixTable(t *testing.T) {
	g := asgraph.NewGraph(4)
	pt, err := NewPrefixTable(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pt.NumPrefixes() != 4*3 {
		t.Fatalf("NumPrefixes = %d", pt.NumPrefixes())
	}
	if pt.byAS[2].String() != "0.2.0.0/16" {
		t.Fatalf("AS2 announces %v", pt.byAS[2])
	}
	if a := pt.AddrIn(2, 77); !pt.byAS[2].Contains(a) {
		t.Fatalf("AddrIn(2, 77) = %v, outside AS2's /16", a)
	}
	// The /24 more-specifics are announced by the same origin.
	for _, po := range pt.All() {
		if po.Prefix.Contains(netaddr.MustParseAddr("0.2.1.9")) && po.Origin != 2 {
			t.Fatalf("%v covers 0.2.1.9 but is originated by AS%d", po.Prefix, po.Origin)
		}
	}
}

func TestNewPrefixTableTooBig(t *testing.T) {
	// Can't actually allocate 2^16+1 ASes cheaply... we can: NewGraph is slices.
	g := asgraph.NewGraph(1<<16 + 1)
	if _, err := NewPrefixTable(g, 0); err == nil {
		t.Fatal("oversized graph should fail")
	}
}

func testInternet(t testing.TB, seed int64) (*asgraph.Graph, *PrefixTable) {
	return synthInternet(t, seed, 60, 500)
}

// synthInternet synthesizes a graph with the given tier-2 and stub counts and
// its address plan with one more-specific per AS.
func synthInternet(t testing.TB, seed int64, tier2, stubs int) (*asgraph.Graph, *PrefixTable) {
	cfg := asgraph.DefaultSynthConfig()
	cfg.Tier2 = tier2
	cfg.Stubs = stubs
	g, err := asgraph.Synthesize(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := NewPrefixTable(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, pt
}

func TestBuildCollectors(t *testing.T) {
	g, pt := testInternet(t, 4)
	rng := rand.New(rand.NewSource(8))
	cols, err := BuildCollectors(g, pt, RouteViewsSpecs(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 12 {
		t.Fatalf("collectors = %d", len(cols))
	}
	byName := map[string]*Collector{}
	for _, c := range cols {
		byName[c.Name] = c
		if c.FIB == nil || c.RIB == nil {
			t.Fatalf("%s missing RIB/FIB", c.Name)
		}
		// Every announced prefix must be forwardable at every collector
		// (the graph is fully reachable).
		if c.FIB.Len() != pt.NumPrefixes() {
			t.Fatalf("%s FIB has %d entries, want %d", c.Name, c.FIB.Len(), pt.NumPrefixes())
		}
		// Ports must be actual session peers.
		peers := map[int]bool{}
		for _, s := range c.Sessions {
			peers[s.PeerAS] = true
		}
		c.FIB.Walk(func(_ netaddr.Prefix, rt Route) bool {
			if !peers[rt.NextHop] {
				t.Fatalf("%s forwards via non-session AS%d", c.Name, rt.NextHop)
			}
			return true
		})
	}
	// A customer-feed collector funnels everything through its feed.
	mau := byName["Mauritius"]
	if mau.FIB.NextHopDegree() != 1 {
		t.Fatalf("Mauritius next-hop degree = %d, want 1 (customer feed dominates)", mau.FIB.NextHopDegree())
	}
	// Oregon-1 must have much higher next-hop diversity than Georgia —
	// the paper's explanation for Figure 8's shape.
	or1, geo := byName["Oregon-1"], byName["Georgia"]
	if or1.FIB.NextHopDegree() <= geo.FIB.NextHopDegree() {
		t.Fatalf("Oregon-1 degree %d should exceed Georgia degree %d",
			or1.FIB.NextHopDegree(), geo.FIB.NextHopDegree())
	}
	t.Logf("next-hop degrees: Oregon-1=%d Georgia=%d Mauritius=%d",
		or1.FIB.NextHopDegree(), geo.FIB.NextHopDegree(), mau.FIB.NextHopDegree())
}

func TestBuildCollectorsDeterministic(t *testing.T) {
	g, pt := testInternet(t, 4)
	c1, err := BuildCollectors(g, pt, RouteViewsSpecs()[:3], rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := BuildCollectors(g, pt, RouteViewsSpecs()[:3], rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c1 {
		if c1[i].HostAS != c2[i].HostAS {
			t.Fatalf("host AS diverged for %s", c1[i].Name)
		}
		for as := 0; as < g.N(); as += 13 {
			a := pt.AddrIn(as, 1)
			p1, _ := c1[i].FIB.Port(a)
			p2, _ := c2[i].FIB.Port(a)
			if p1 != p2 {
				t.Fatalf("FIB diverged at %s for AS%d", c1[i].Name, as)
			}
		}
	}
}

func TestRIPESpecsShape(t *testing.T) {
	specs := RIPESpecs()
	if len(specs) != 13 {
		t.Fatalf("RIPE specs = %d, want 13", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Fatalf("duplicate collector name %q", s.Name)
		}
		names[s.Name] = true
		if s.NumSess < 1 {
			t.Fatalf("%s has no sessions", s.Name)
		}
	}
}

func TestBadSpec(t *testing.T) {
	g, pt := testInternet(t, 4)
	_, err := BuildCollectors(g, pt, []Spec{{Name: "bad", NumSess: 0}}, rand.New(rand.NewSource(1)))
	if err == nil {
		t.Fatal("zero-session spec should fail")
	}
}

func BenchmarkDeriveFIB(b *testing.B) {
	g, pt := testInternet(b, 4)
	rng := rand.New(rand.NewSource(8))
	cols, err := BuildCollectors(g, pt, RouteViewsSpecs()[:1], rng)
	if err != nil {
		b.Fatal(err)
	}
	rib := cols[0].RIB
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rib.DeriveFIB()
	}
}

// TestBuildCollectorsAllocationBudget pins what a candidate costs the build:
// building the 25 collectors on the quick internet (Tier2 80, Stubs 700, one
// more-specific per AS) on two workers may allocate at most 10 bytes per
// candidate route and 2 600 objects. The build writes the shared path table
// and each collector's FIB column, and no candidate: a RIB's slab is written
// on its first read, which this test makes only after measuring. Writing the
// slab and spans during the build (11.1 bytes per candidate), a route struct
// per candidate (83.5) or a make per prefix (37 500 prefixes) fails here, not
// only in the benchmark, and so does a route table per origin run where one
// per worker will do (1 715 objects on two workers, 34 000 with a table per
// run).
func TestBuildCollectorsAllocationBudget(t *testing.T) {
	prev := runtime.GOMAXPROCS(2) // the build takes a route table per worker
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	g, pt := synthInternet(t, 20140817+1, 80, 700)
	specs := append(RouteViewsSpecs(), RIPESpecs()...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cols, err := BuildCollectors(g, pt, specs, rand.New(rand.NewSource(20140817+2)))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	routes := 0
	for _, c := range cols {
		routes += c.RIB.NumRoutes()
	}
	perRoute := float64(after.TotalAlloc-before.TotalAlloc) / float64(routes)
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("%d candidates: %.1f bytes and %d mallocs in all", routes, perRoute, mallocs)
	if perRoute > 10 {
		t.Errorf("BuildCollectors allocated %.1f bytes per candidate route, budget 10", perRoute)
	}
	if mallocs > 2600 {
		t.Errorf("BuildCollectors made %d allocations, budget 2600", mallocs)
	}
}
