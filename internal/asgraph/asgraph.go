// Package asgraph models an AS-level Internet: autonomous systems with
// customer-provider and peer-peer relationships, valley-free (Gao–Rexford)
// route computation with standard export rules, tiered topology synthesis
// with geographic regions, and Gao-style relationship inference.
//
// This package is the substitute for the real Internet topology behind the
// paper's RouteViews/RIPE RIBs: internal/bgp builds collector RIBs out of the
// best routes this package computes.
package asgraph

import (
	"fmt"
)

// Rel classifies the business relationship an AS has with a neighbor, from
// the AS's own point of view.
type Rel int8

const (
	// RelCustomer means the neighbor is my customer (I provide transit).
	RelCustomer Rel = iota
	// RelPeer means a settlement-free peer.
	RelPeer
	// RelProvider means the neighbor is my provider.
	RelProvider
)

// String returns the lowercase name of the relationship.
func (r Rel) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Region is a coarse geographic region for an AS; collectors and user
// populations are placed in regions, which is what makes distant collectors
// (Mauritius, Tokyo) see little route diversity for US/EU user prefixes.
type Region int8

// The regions used by the paper's collector set.
const (
	NorthAmerica Region = iota
	SouthAmerica
	Europe
	Asia
	Oceania
	Africa
	numRegions
)

// String returns a short region code.
func (r Region) String() string {
	switch r {
	case NorthAmerica:
		return "NA"
	case SouthAmerica:
		return "SA"
	case Europe:
		return "EU"
	case Asia:
		return "AS"
	case Oceania:
		return "OC"
	case Africa:
		return "AF"
	}
	return fmt.Sprintf("Region(%d)", int(r))
}

// Tier is the position of an AS in the provider hierarchy: 1 is the
// settlement-free core, higher numbers are farther down. Stubs are the
// highest tier in a synthesized graph.
type Tier uint8

// Graph is an AS-level topology. ASes are dense integers 0..N-1.
type Graph struct {
	n         int
	tier      []Tier
	region    []Region
	providers [][]int32 // providers[x] = ASes that provide transit to x
	customers [][]int32 // customers[x] = ASes x provides transit to
	peers     [][]int32
	transit   []int32 // the ASes with a customer, in the order they got their first one
}

// NewGraph creates a graph of n ASes, all tier 0 / NorthAmerica until
// configured via SetAS.
func NewGraph(n int) *Graph {
	return &Graph{
		n:         n,
		tier:      make([]Tier, n),
		region:    make([]Region, n),
		providers: make([][]int32, n),
		customers: make([][]int32, n),
		peers:     make([][]int32, n),
	}
}

// N returns the number of ASes.
func (g *Graph) N() int { return g.n }

// SetAS assigns tier and region metadata to AS x.
func (g *Graph) SetAS(x int, tier Tier, region Region) {
	g.tier[x] = tier
	g.region[x] = region
}

// Tier returns the tier of AS x.
func (g *Graph) Tier(x int) Tier { return g.tier[x] }

// Region returns the region of AS x.
func (g *Graph) Region(x int) Region { return g.region[x] }

// AddC2P records that customer buys transit from provider.
func (g *Graph) AddC2P(customer, provider int) error {
	if err := g.check(customer, provider); err != nil {
		return err
	}
	for _, p := range g.providers[customer] {
		if int(p) == provider {
			return fmt.Errorf("asgraph: duplicate c2p %d->%d", customer, provider)
		}
	}
	if len(g.customers[provider]) == 0 {
		g.transit = append(g.transit, int32(provider))
	}
	g.providers[customer] = append(g.providers[customer], int32(provider))
	g.customers[provider] = append(g.customers[provider], int32(customer))
	return nil
}

// AddPeer records a settlement-free peering between a and b.
func (g *Graph) AddPeer(a, b int) error {
	if err := g.check(a, b); err != nil {
		return err
	}
	for _, p := range g.peers[a] {
		if int(p) == b {
			return fmt.Errorf("asgraph: duplicate peering %d--%d", a, b)
		}
	}
	g.peers[a] = append(g.peers[a], int32(b))
	g.peers[b] = append(g.peers[b], int32(a))
	return nil
}

func (g *Graph) check(a, b int) error {
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		return fmt.Errorf("asgraph: AS pair (%d,%d) out of range [0,%d)", a, b, g.n)
	}
	if a == b {
		return fmt.Errorf("asgraph: self relationship at %d", a)
	}
	return nil
}

// Providers returns the providers of x. The slice must not be modified.
func (g *Graph) Providers(x int) []int32 { return g.providers[x] }

// RelOf returns the relationship of x with neighbor y, if any.
func (g *Graph) RelOf(x, y int) (Rel, bool) {
	for _, c := range g.customers[x] {
		if int(c) == y {
			return RelCustomer, true
		}
	}
	for _, p := range g.peers[x] {
		if int(p) == y {
			return RelPeer, true
		}
	}
	for _, p := range g.providers[x] {
		if int(p) == y {
			return RelProvider, true
		}
	}
	return 0, false
}

// RouteClass classifies a selected route by how its first hop relates to the
// selecting AS; the Gao–Rexford preference order is Customer > Peer >
// Provider.
type RouteClass int8

// Route classes in decreasing preference order.
const (
	ClassNone RouteClass = iota // no route
	ClassSelf                   // the destination itself
	ClassCustomer
	ClassPeer
	ClassProvider
)

// String names the route class.
func (c RouteClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassSelf:
		return "self"
	case ClassCustomer:
		return "customer"
	case ClassPeer:
		return "peer"
	case ClassProvider:
		return "provider"
	}
	return fmt.Sprintf("RouteClass(%d)", int(c))
}

// RouteTable holds, for a single destination AS, every other AS's selected
// (policy-best) route: its class, AS-path length, and chosen next hop.
// RoutesToInto settles the destination and the ASes with customers; the
// readers work out any other AS's route from its neighbours' when asked, so
// they read the graph as it is then: reads are valid only while the graph is
// unchanged since the last RoutesToInto.
type RouteTable struct {
	Dest   int
	g      *Graph // the graph the table was computed on
	class  []RouteClass
	dist   []int32
	parent []int32

	// Scratch of the computation, kept so a reused table (RoutesToInto)
	// allocates nothing: stage 1's BFS frontiers and stage 3's ASes by
	// distance.
	frontier, next []int32
	level          [][]int32
}

// route returns x's selected route: its class, AS-path length and next hop,
// or (ClassNone, -1, -1). A customerless AS other than the destination was
// not settled; it has no customer route, so it selects what stages 2 and 3
// would have given it: the shortest route of a peer that is the destination
// or holds a customer route, else the shortest route of any routed provider,
// the lowest next hop on ties. Those neighbours are all settled.
func (rt *RouteTable) route(x int) (RouteClass, int32, int32) {
	g := rt.g
	if x == rt.Dest || len(g.customers[x]) > 0 {
		if rt.class[x] == ClassNone {
			return ClassNone, -1, -1
		}
		return rt.class[x], rt.dist[x], rt.parent[x]
	}
	if dist, hop, ok := rt.bestPeer(x); ok {
		return ClassPeer, dist, hop
	}
	class, dist, parent := ClassNone, int32(-1), int32(-1)
	for _, p := range g.providers[x] {
		if rt.class[p] == ClassNone {
			continue
		}
		if pd := rt.dist[p] + 1; class == ClassNone || pd < dist || (pd == dist && p < parent) {
			class, dist, parent = ClassProvider, pd, p
		}
	}
	return class, dist, parent
}

// bestPeer returns the peer route x hears: the shortest route of a peer that
// is the destination or holds a customer route, the lowest peer ID on ties.
// ok is false when no peer exports x a route.
func (rt *RouteTable) bestPeer(x int) (dist, hop int32, ok bool) {
	for _, p := range rt.g.peers[x] {
		if c := rt.class[p]; c != ClassSelf && c != ClassCustomer {
			continue
		}
		if pd := rt.dist[p] + 1; !ok || pd < dist || (pd == dist && p < hop) {
			dist, hop, ok = pd, p, true
		}
	}
	return dist, hop, ok
}

// PathLen returns the AS-path length (hop count) of x's selected route to
// the destination; -1 if x has no route. The destination itself has length 0.
//
//lint:zeroalloc per AS; bgp's path table sizes every origin's chunk by it
func (rt *RouteTable) PathLen(x int) int {
	_, dist, _ := rt.route(x)
	return int(dist)
}

// Path returns the full AS path from x to the destination, inclusive of both
// ends; nil if x has no route.
func (rt *RouteTable) Path(x int) []int {
	n := rt.PathLen(x)
	if n < 0 {
		return nil
	}
	return rt.AppendPath(make([]int, 0, n+1), x)
}

// AppendPath appends the full AS path from x to the destination onto dst and
// returns the extended slice (dst unchanged when x has no route). Callers
// minting many paths — bgp.BuildCollectors walks one per (origin, feed peer)
// — can slab them into one backing array instead of allocating per path.
//
//lint:zeroalloc per path into a dst with room for it; bgp's path table appends every feed peer's path into one chunk
func (rt *RouteTable) AppendPath(dst []int, x int) []int {
	class, _, hop := rt.route(x)
	if class == ClassNone {
		return dst
	}
	start := len(dst)
	dst = append(dst, x)
	// Every hop after x is settled: a next hop is the destination or has a
	// customer.
	for v := x; v != rt.Dest; hop = rt.parent[v] {
		v = int(hop)
		dst = append(dst, v)
		if len(dst)-start > len(rt.class) {
			panic("asgraph: cycle in route table")
		}
	}
	return dst
}

// RoutesTo computes the selected valley-free route of every AS toward
// destination d, following Gao–Rexford selection (customer > peer >
// provider, then shortest AS path, then lowest next-hop ID) and export
// rules (routes learned from peers or providers are exported only to
// customers).
//
// The computation runs in three stages:
//  1. customer routes — BFS from d along customer→provider edges,
//  2. peer routes — one peer hop into an AS that selected a customer route,
//  3. provider routes — shortest paths down provider→customer edges seeded
//     with every AS that already selected a route (an AS exports its
//     selected route, whatever its class, to its customers).
//
// Only d and the ASes with customers are settled. A customerless AS other
// than d carries no one's route: it is on no customer route (stage 1 climbs
// from d to providers), exports no customer route to a peer (it has none)
// and has no customer to export to. Nothing the stages compute depends on
// its route, so the table's readers select it from its peers' and
// providers' routes when asked — in a synthesized graph, the stubs, most of
// the ASes.
//
//lint:allow reach bgp's oracle_test.go builds its reference collectors, and iplane_test.go its traces, from a fresh table per destination
func (g *Graph) RoutesTo(d int) *RouteTable {
	rt := &RouteTable{}
	g.RoutesToInto(rt, d)
	return rt
}

// RoutesToInto is RoutesTo into a caller-held table: rt is overwritten with
// the routes toward d, reusing its arrays when they already fit g. Callers
// that compute one table per destination and keep nothing of the last one —
// bgp.BuildCollectors runs one per prefix origin — hold one RouteTable per
// goroutine for the whole pass. The zero RouteTable is ready for use.
//
//lint:zeroalloc per destination once rt's arrays and scratch have grown to fit the graph
func (g *Graph) RoutesToInto(rt *RouteTable, d int) {
	if d < 0 || d >= g.n {
		panic(fmt.Sprintf("asgraph: destination %d out of range", d))
	}
	if cap(rt.class) < g.n {
		rt.class = make([]RouteClass, g.n)
		rt.dist = make([]int32, g.n)
		rt.parent = make([]int32, g.n)
	}
	rt.class, rt.dist, rt.parent = rt.class[:g.n], rt.dist[:g.n], rt.parent[:g.n]
	clear(rt.class)
	rt.g = g
	rt.Dest = d
	rt.class[d] = ClassSelf
	rt.dist[d] = 0
	rt.parent[d] = int32(d)

	// Stage 1: customer routes. BFS up the provider hierarchy: if x's
	// customer c has a customer route (or is d), x hears it. Within the
	// class, shorter paths first (BFS level order), tie-break on lowest
	// next-hop ID by scanning candidates per level. Every AS it reaches is
	// a provider, so has a customer.
	frontier, next := append(rt.frontier[:0], int32(d)), rt.next[:0]
	for len(frontier) > 0 {
		next = next[:0]
		for _, cv := range frontier {
			for _, pr := range g.providers[cv] {
				if rt.class[pr] == ClassNone {
					rt.class[pr] = ClassCustomer
					rt.dist[pr] = rt.dist[cv] + 1
					rt.parent[pr] = cv
					next = append(next, pr)
				} else if rt.class[pr] == ClassCustomer && rt.dist[pr] == rt.dist[cv]+1 && cv < rt.parent[pr] {
					rt.parent[pr] = cv // equal length: prefer lower next-hop ID
				}
			}
		}
		frontier, next = next, frontier
	}
	rt.frontier, rt.next = frontier, next

	// Stage 2: peer routes. x hears from peer p iff p selected a customer
	// route (or p is d); x uses it only if x has no customer route. The
	// result is written in place: a peer route is never an exporting class
	// here, so an x already given one changes nothing for a later x. A
	// customerless peer other than d holds ClassNone.
	for _, x := range g.transit {
		if rt.class[x] != ClassNone {
			continue
		}
		if dist, hop, ok := rt.bestPeer(int(x)); ok {
			rt.class[x], rt.dist[x], rt.parent[x] = ClassPeer, dist, hop
		}
	}

	// Stage 3: provider routes. Every AS with a selected route exports it to
	// its customers; a customer lacking customer/peer routes selects the
	// shortest such provider route. Every provider→customer edge costs one
	// hop, so visiting ASes in order of distance — level[k] holds those at
	// distance k — finds shortest paths without a priority queue: a customer
	// first reached from level k is at distance k+1 and no later level can
	// improve on that. Among the level-k providers that reach it the lowest
	// ID wins, and a minimum does not depend on the order they are visited.
	// Only ASes with customers export, so only they are filed and settled;
	// a customerless d has no one to export to.
	for k := range rt.level {
		rt.level[k] = rt.level[k][:0]
	}
	for _, x := range g.transit {
		if rt.class[x] != ClassNone {
			rt.addLevel(rt.dist[x], x)
		}
	}
	for k := 0; k < len(rt.level); k++ {
		// addLevel may grow rt.level[k+1] (and rt.level itself) during the
		// scan, never rt.level[k].
		for _, x := range rt.level[k] {
			for _, c := range g.customers[x] {
				if len(g.customers[c]) == 0 {
					continue
				}
				switch rt.class[c] {
				case ClassNone:
					rt.class[c] = ClassProvider
					rt.dist[c] = int32(k) + 1
					rt.parent[c] = x
					rt.addLevel(int32(k)+1, c)
				case ClassProvider:
					if rt.dist[c] == int32(k)+1 && x < rt.parent[c] {
						rt.parent[c] = x
					}
				}
			}
		}
	}
}

// addLevel files AS x under distance k for stage 3.
func (rt *RouteTable) addLevel(k, x int32) {
	for int(k) >= len(rt.level) {
		rt.level = append(rt.level, nil)
	}
	rt.level[k] = append(rt.level[k], x)
}

// ShortestUndirectedHops ignores policy entirely and returns the hop
// distance from src to every AS over the physical adjacency (all
// relationship types). This is the paper's Fig. 10 lower-bound technique:
// "the length of the shortest AS path ... using the Internet's AS-level
// physical topology even if this route may not exist in the AS-level routing
// topology". Unreachable ASes get -1.
func (g *Graph) ShortestUndirectedHops(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.n {
		return dist
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		relax := func(vs []int32) {
			for _, v := range vs {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		relax(g.providers[u])
		relax(g.customers[u])
		relax(g.peers[u])
	}
	return dist
}
