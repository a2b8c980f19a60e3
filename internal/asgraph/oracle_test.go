package asgraph

import (
	"fmt"
	"math/rand"
	"testing"
)

// routesToHeap is the route computation RoutesTo used before stage 3 became
// level-order: a map of stage-2 candidates applied after the scan, and a
// (dist, as) binary-heap Dijkstra for stage 3. It allocates everything
// fresh and shares no code with RoutesToInto, which makes it the oracle the
// production algorithm is compared against on every destination.
func routesToHeap(g *Graph, d int) *RouteTable {
	rt := &RouteTable{
		Dest:   d,
		class:  make([]RouteClass, g.n),
		dist:   make([]int32, g.n),
		parent: make([]int32, g.n),
	}
	for i := range rt.parent {
		rt.parent[i] = -1
		rt.dist[i] = -1
	}
	rt.class[d] = ClassSelf
	rt.dist[d] = 0
	rt.parent[d] = int32(d)

	frontier := []int32{int32(d)}
	for len(frontier) > 0 {
		var next []int32
		for _, cv := range frontier {
			for _, pr := range g.providers[cv] {
				if rt.class[pr] == ClassNone {
					rt.class[pr] = ClassCustomer
					rt.dist[pr] = rt.dist[cv] + 1
					rt.parent[pr] = cv
					next = append(next, pr)
				} else if rt.class[pr] == ClassCustomer && rt.dist[pr] == rt.dist[cv]+1 && cv < rt.parent[pr] {
					rt.parent[pr] = cv
				}
			}
		}
		frontier = next
	}

	type peerCand struct {
		dist   int32
		parent int32
	}
	peerBest := make(map[int32]peerCand)
	for x := 0; x < g.n; x++ {
		if rt.class[x] != ClassNone {
			continue
		}
		for _, p := range g.peers[x] {
			var pd int32
			switch rt.class[p] {
			case ClassSelf:
				pd = 0
			case ClassCustomer:
				pd = rt.dist[p]
			default:
				continue
			}
			cand := peerCand{dist: pd + 1, parent: p}
			if cur, ok := peerBest[int32(x)]; !ok || cand.dist < cur.dist ||
				(cand.dist == cur.dist && cand.parent < cur.parent) {
				peerBest[int32(x)] = cand
			}
		}
	}
	for x, cand := range peerBest {
		rt.class[x] = ClassPeer
		rt.dist[x] = cand.dist
		rt.parent[x] = cand.parent
	}

	pq := make(asHeap, 0, g.n)
	for x := 0; x < g.n; x++ {
		if rt.class[x] != ClassNone {
			pq.push(asItem{as: int32(x), dist: rt.dist[x]})
		}
	}
	for len(pq) > 0 {
		it := pq.pop()
		x := it.as
		if it.dist > rt.dist[x] {
			continue // stale entry
		}
		for _, c := range g.customers[x] {
			nd := rt.dist[x] + 1
			switch rt.class[c] {
			case ClassNone:
				rt.class[c] = ClassProvider
				rt.dist[c] = nd
				rt.parent[c] = x
				pq.push(asItem{as: c, dist: nd})
			case ClassProvider:
				if nd < rt.dist[c] || (nd == rt.dist[c] && x < rt.parent[c]) {
					if nd < rt.dist[c] {
						rt.dist[c] = nd
						rt.parent[c] = x
						pq.push(asItem{as: c, dist: nd})
					} else {
						rt.parent[c] = x
					}
				}
			}
		}
	}
	return rt
}

type asItem struct {
	as   int32
	dist int32
}

// less orders the Dijkstra frontier by (dist, as), a total order over
// distinct items, so pop order does not depend on insertion order.
func (a asItem) less(b asItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.as < b.as
}

type asHeap []asItem

func (h *asHeap) push(it asItem) {
	s := append(*h, it)
	*h = s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].less(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *asHeap) pop() asItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r].less(s[l]) {
			m = r
		}
		if !s[m].less(s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// oracleGraphs returns seeded graphs at the two sizes the experiments run
// (the quick world's 792 ASes and the default 1992), plus sparse variants
// where a low MegaHomedFrac and no tier-2 peering push more ASes onto
// provider routes of differing lengths — the case stage 3 exists for.
func oracleGraphs(t *testing.T) []*Graph {
	t.Helper()
	quick := DefaultSynthConfig()
	quick.Tier2, quick.Stubs = 80, 700
	sparse := quick
	sparse.MegaHomedFrac, sparse.Tier2PeerProb, sparse.MultihomeFrac = 0.1, 0, 0.8
	var gs []*Graph
	add := func(cfg SynthConfig, seeds ...int64) {
		for _, seed := range seeds {
			g, err := Synthesize(cfg, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			gs = append(gs, g)
		}
	}
	add(quick, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	add(sparse, 21, 22, 23, 24)
	add(DefaultSynthConfig(), 31, 32, 33, 34)
	return gs
}

// sameRoutes reports whether got's read path selects, for every AS, the
// class, length and next hop the oracle table want holds in its arrays.
func sameRoutes(got, want *RouteTable) bool {
	if got.Dest != want.Dest || len(got.class) != len(want.class) {
		return false
	}
	for x := range want.class {
		if c, d, p := got.route(x); c != want.class[x] || d != want.dist[x] || p != want.parent[x] {
			return false
		}
	}
	return true
}

// TestRoutesToMatchesHeapOracle compares class, dist and parent of every AS
// for every destination of every oracle graph, three ways: the heap oracle,
// a fresh RoutesTo, and one RouteTable reused across all destinations in
// shuffled order — the last catches scratch carried from one destination
// into the next.
func TestRoutesToMatchesHeapOracle(t *testing.T) {
	for gi, g := range oracleGraphs(t) {
		t.Run(fmt.Sprintf("graph%d-%dASes", gi, g.N()), func(t *testing.T) {
			t.Parallel()
			order := rand.New(rand.NewSource(int64(gi))).Perm(g.N())
			var reused RouteTable
			for _, d := range order {
				want := routesToHeap(g, d)
				if got := g.RoutesTo(d); !sameRoutes(got, want) {
					t.Fatalf("RoutesTo(%d) differs from the heap oracle", d)
				}
				g.RoutesToInto(&reused, d)
				if !sameRoutes(&reused, want) {
					t.Fatalf("reused table differs from the heap oracle at destination %d", d)
				}
			}
		})
	}
}

// TestRoutesToIntoAcrossGraphs reuses one table on a larger, then a smaller,
// then the larger graph again: the arrays must be re-cut to each graph's
// size, not left at the previous one's.
func TestRoutesToIntoAcrossGraphs(t *testing.T) {
	small := tinyInternet(t)
	cfg := DefaultSynthConfig()
	cfg.Tier2, cfg.Stubs = 20, 100
	big, err := Synthesize(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	var rt RouteTable
	for _, g := range []*Graph{big, small, big} {
		for d := 0; d < g.N(); d++ {
			g.RoutesToInto(&rt, d)
			if !sameRoutes(&rt, routesToHeap(g, d)) {
				t.Fatalf("%d-AS graph, destination %d: reused table differs from the heap oracle", g.N(), d)
			}
		}
	}
}
