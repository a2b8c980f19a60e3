package asgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// leafInternet is an 8-AS graph whose customerless ASes peer:
//
//	  0             (tier-1)
//	 / \
//	1   2           (transit)
//	|   | \
//	3   4  5        (stubs; 5--1 peer)
//	:   :
//	6   7           (no providers; 6--3 and 7--4 peer)
//
// Synthesize never gives a stub a peer, so in the synthesized oracle graphs
// only a tier-2 that no stub buys from takes the read's peer branch; here
// customerless ASes peer with a transit AS, with a stub and with each other
// on purpose.
func leafInternet(t testing.TB) *Graph {
	t.Helper()
	g := NewGraph(8)
	for _, e := range [][2]int{{1, 0}, {2, 0}, {3, 1}, {4, 2}, {5, 2}} {
		if err := g.AddC2P(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]int{{5, 1}, {6, 3}, {7, 4}} {
		if err := g.AddPeer(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestRoutesToCustomerlessReads checks, on one table reused over
// leafInternet's destinations, each way the read path resolves a
// customerless AS: from a transit peer's customer route, from the
// destination as its peer, toward a customerless destination, and to no
// route at all. Every destination is also held to the heap oracle.
func TestRoutesToCustomerlessReads(t *testing.T) {
	g := leafInternet(t)
	type want struct {
		class RouteClass
		path  []int // nil: no route
	}
	cases := []struct {
		dest int
		why  string
		as   int
		want want
	}{
		{3, "customerless AS peering with a transit AS that holds a customer route", 5, want{ClassPeer, []int{5, 1, 3}}},
		{3, "customerless AS peering with the destination", 6, want{ClassPeer, []int{6, 3}}},
		{3, "customerless AS whose only peer is customerless, no provider", 7, want{ClassNone, nil}},
		{3, "customerless AS with only a provider route", 4, want{ClassProvider, []int{4, 2, 0, 1, 3}}},
		{5, "transit AS peering with a customerless destination", 1, want{ClassPeer, []int{1, 5}}},
		{5, "customerless AS below that transit peer", 3, want{ClassProvider, []int{3, 1, 5}}},
		{5, "customerless AS whose peer holds only a provider route", 6, want{ClassNone, nil}},
		{6, "customerless AS peering with a customerless destination", 3, want{ClassPeer, []int{3, 6}}},
		{6, "transit AS above the destination's only peer", 1, want{ClassNone, nil}},
	}
	var rt RouteTable
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {7, 6, 5, 4, 3, 2, 1, 0}, {3, 6, 5, 3, 7, 6}} {
		for _, d := range order {
			g.RoutesToInto(&rt, d)
			if !sameRoutes(&rt, routesToHeap(g, d)) {
				t.Fatalf("order %v, destination %d: reused table differs from the heap oracle", order, d)
			}
			for _, c := range cases {
				if c.dest != d {
					continue
				}
				if got := classOf(&rt, c.as); got != c.want.class {
					t.Errorf("to %d, %s: AS%d selects %v, want %v", d, c.why, c.as, got, c.want.class)
				}
				if got := rt.Path(c.as); !slices.Equal(got, c.want.path) {
					t.Errorf("to %d, %s: AS%d path %v, want %v", d, c.why, c.as, got, c.want.path)
				}
				if got := rt.PathLen(c.as); got != len(c.want.path)-1 {
					t.Errorf("to %d, %s: AS%d PathLen %d, want %d", d, c.why, c.as, got, len(c.want.path)-1)
				}
			}
		}
	}
}

// randomGraph builds an n-AS graph with random c2p edges (customer above
// provider in ID, so the hierarchy has no cycle) and random peerings between
// any two ASes, customerless ones included.
func randomGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < 2*n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if rng.Intn(3) == 0 {
			g.AddPeer(a, b) //nolint:errcheck // a duplicate is refused and skipped
		} else {
			g.AddC2P(max(a, b), min(a, b)) //nolint:errcheck // a duplicate is refused and skipped
		}
	}
	return g
}

// TestRoutesToReusedAcrossGraphChanges reuses one table over random graphs
// whose customerless ASes peer, held to the heap oracle after every call and
// each AS's path to its length. Between calls an AddC2P sometimes gives the
// previous destination, when it was customerless, a first customer, so the
// next call must settle it as a transit AS; and each next graph, of the same
// size, takes over the table, which must hold nothing of the last one's.
func TestRoutesToReusedAcrossGraphChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var rt RouteTable
	for gi := 0; gi < 40; gi++ {
		n := 30
		g := randomGraph(rng, n)
		for call := 0; call < 3*n; call++ {
			d := rng.Intn(n)
			g.RoutesToInto(&rt, d)
			if !sameRoutes(&rt, routesToHeap(g, d)) {
				t.Fatalf("graph %d, call %d, destination %d: reused table differs from the heap oracle", gi, call, d)
			}
			for x := 0; x < n; x++ {
				if err := checkPath(g, &rt, x); err != nil {
					t.Fatalf("graph %d, call %d, destination %d: %v", gi, call, d, err)
				}
			}
			if len(g.customers[d]) == 0 && d+1 < n && rng.Intn(4) == 0 {
				if err := g.AddC2P(d+1+rng.Intn(n-d-1), d); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// checkPath holds x's Path in rt to its PathLen: nil exactly when the length
// is -1, else a walk of neighbours from x to the destination, one AS longer
// than the length.
func checkPath(g *Graph, rt *RouteTable, x int) error {
	p, n := rt.Path(x), rt.PathLen(x)
	if n < 0 {
		if p != nil {
			return fmt.Errorf("AS%d has no route but path %v", x, p)
		}
		return nil
	}
	if len(p) != n+1 || p[0] != x || p[n] != rt.Dest {
		return fmt.Errorf("AS%d: path %v, length %d", x, p, n)
	}
	for i := 0; i < n; i++ {
		if _, ok := g.RelOf(p[i], p[i+1]); !ok {
			return fmt.Errorf("AS%d: path %v steps between non-neighbours", x, p)
		}
	}
	return nil
}

// FuzzRoutesTo builds a small graph from the input — byte 0 the AS count (2
// plus it mod 15), then one edge per byte pair: a peering when the second
// byte's top bit is set, else a c2p edge, either ID order, cycles allowed —
// and holds one reused table to the heap oracle on every destination, twice
// over in an order the input also picks, and each AS's path to its length.
func FuzzRoutesTo(f *testing.F) {
	f.Add([]byte{6, 1, 0, 2, 0, 3, 1, 4, 2, 5, 2, 5, 0x81, 6, 0x83, 7, 0x84})
	f.Add([]byte{3, 1, 0, 2, 0x80})
	f.Add([]byte{15, 0, 1, 1, 2, 2, 0, 3, 0x84, 4, 0x85, 5, 3, 6, 0x87, 9, 10, 11, 0x8c})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%15
		g := NewGraph(n)
		edges := data[1:]
		for i := 0; i+1 < len(edges); i += 2 {
			a, b := int(edges[i])%n, int(edges[i+1]&0x7f)%n
			if a == b {
				continue
			}
			if edges[i+1]&0x80 != 0 {
				g.AddPeer(a, b) //nolint:errcheck // a duplicate is refused and skipped
			} else {
				g.AddC2P(a, b) //nolint:errcheck // a duplicate is refused and skipped
			}
		}
		order := rand.New(rand.NewSource(int64(len(data)) + int64(data[0]))).Perm(n)
		var rt RouteTable
		for _, d := range append(order, order...) {
			g.RoutesToInto(&rt, d)
			if !sameRoutes(&rt, routesToHeap(g, d)) {
				t.Fatalf("destination %d: reused table differs from the heap oracle", d)
			}
			for x := 0; x < n; x++ {
				if err := checkPath(g, &rt, x); err != nil {
					t.Fatalf("destination %d: %v", d, err)
				}
			}
		}
	})
}

// BenchmarkRoutesToInto computes every destination of the quick world's
// internet (792 ASes: Tier2 80, Stubs 700, the default seed's graph stream)
// into one reused table, as bgp.FillCollectors does on each of its workers.
func BenchmarkRoutesToInto(b *testing.B) {
	cfg := DefaultSynthConfig()
	cfg.Tier2, cfg.Stubs = 80, 700
	g, err := Synthesize(cfg, rand.New(rand.NewSource(20140817+1)))
	if err != nil {
		b.Fatal(err)
	}
	var rt RouteTable
	b.ReportAllocs()
	for b.Loop() {
		for d := 0; d < g.N(); d++ {
			g.RoutesToInto(&rt, d)
		}
	}
}
