// Package topology provides the undirected graph model used by the analytic
// stretch/update-cost study (§5) and by the synthetic router-level topology
// underlying the iPlane substitute. It includes the paper's toy topologies
// (chain, clique, binary tree, star) plus generic builders, BFS shortest
// paths, and the all-pairs table of hop counts and next hops.
package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
)

// Graph is an undirected graph over nodes 0..N-1. Parallel edges and
// self-loops are rejected. Its readers are safe for concurrent use; AddEdge
// is not, and must not overlap any other call.
type Graph struct {
	n   int
	adj [][]Edge

	// mu guards the all-pairs table, filled on first use (allPairs) and
	// dropped by AddEdge.
	mu   sync.Mutex
	hops [][]int
	next [][]int
}

// Edge is a half-edge: the neighbor it leads to.
type Edge struct {
	To int
}

// New creates a graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("topology: negative node count")
	}
	return &Graph{n: n, adj: make([][]Edge, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddEdge inserts an undirected edge.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("topology: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("topology: self-loop at %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("topology: duplicate edge (%d,%d)", u, v)
	}
	g.adj[u] = append(g.adj[u], Edge{To: v})
	g.adj[v] = append(g.adj[v], Edge{To: u})
	g.hops, g.next = nil, nil
	return nil
}

// HasEdge reports whether u and v are adjacent.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	for _, e := range g.adj[u] {
		if e.To == v {
			return true
		}
	}
	return false
}

// bfs computes unweighted hop distances from node src into dist, -1 for
// unreachable nodes, and one shortest-path tree into parent (parent[src] ==
// src); queue is scratch of capacity n. Parents follow discovery order, so
// ties go to the neighbor listed first.
func (g *Graph) bfs(src int, dist, parent, queue []int) {
	for i := range dist {
		dist[i], parent[i] = -1, -1
	}
	dist[src], parent[src] = 0, src
	queue = append(queue[:0], src)
	for k := 0; k < len(queue); k++ {
		u := queue[k]
		for _, e := range g.adj[u] {
			if dist[e.To] == -1 {
				dist[e.To] = dist[u] + 1
				parent[e.To] = u
				queue = append(queue, e.To)
			}
		}
	}
}

// AllPairsHops is the hop-count matrix: hops[u][v] is the distance from u
// to v, -1 when unreachable. Its rows are shared; do not modify them.
func (g *Graph) AllPairsHops() [][]int {
	hops, _ := g.allPairs()
	return hops
}

// NextHops is the shortest-path forwarding table: next[loc][r] is router
// r's next hop toward loc (BFS-discovery tie-break via adjacency order),
// and -1 when r == loc (the local port) or r cannot reach loc. Its rows are
// shared; do not modify them.
func (g *Graph) NextHops() [][]int {
	_, next := g.allPairs()
	return next
}

// allPairs fills the table on first use, one BFS per node u: u's dist is
// row u of hops, and since distances are symmetric, u's parents are row u
// of next.
func (g *Graph) allPairs() (hops, next [][]int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.hops == nil {
		g.hops, g.next = make([][]int, g.n), make([][]int, g.n)
		queue := make([]int, 0, g.n)
		for u := range g.n {
			g.hops[u], g.next[u] = make([]int, g.n), make([]int, g.n)
			g.bfs(u, g.hops[u], g.next[u], queue)
			g.next[u][u] = -1
		}
	}
	return g.hops, g.next
}

// Connected reports whether the graph is connected (the empty graph and the
// single node are connected).
func (g *Graph) Connected() bool {
	return g.n <= 1 || !slices.Contains(g.AllPairsHops()[0], -1)
}

// Chain builds the paper's Figure 5 topology: routers 1..n in a line
// (implemented as nodes 0..n-1).
func Chain(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1) //nolint:errcheck // construction cannot fail here
	}
	return g
}

// Clique builds the complete graph on n nodes.
func Clique(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j) //nolint:errcheck
		}
	}
	return g
}

// BinaryTree builds a complete binary tree with n nodes, rooted at 0 with
// children 2i+1 and 2i+2 (heap layout).
func BinaryTree(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		if l := 2*i + 1; l < n {
			g.AddEdge(i, l) //nolint:errcheck
		}
		if r := 2*i + 2; r < n {
			g.AddEdge(i, r) //nolint:errcheck
		}
	}
	return g
}

// Star builds a star with node 0 at the center and n leaves (n+1 nodes
// total), matching the paper's "star with n+1 routers" convention.
func Star(n int) *Graph {
	g := New(n + 1)
	for i := 1; i <= n; i++ {
		g.AddEdge(0, i) //nolint:errcheck
	}
	return g
}

// Ring builds a cycle on n >= 3 nodes.
//
//lint:allow reach a test topology of analytic, compact, intradomain and netsim (their _test.go files)
func Ring(n int) *Graph {
	g := New(n)
	if n < 3 {
		return g
	}
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n) //nolint:errcheck
	}
	return g
}

// Grid builds a rows x cols 4-neighbor mesh.
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1)) //nolint:errcheck
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c)) //nolint:errcheck
			}
		}
	}
	return g
}

// PreferentialAttachment builds a Barabási–Albert-style graph: nodes arrive
// one at a time and attach m edges to existing nodes chosen proportionally
// to degree (plus one, so isolated seeds can be chosen). Produces the
// heavy-tailed degree distributions characteristic of AS-level topologies.
func PreferentialAttachment(n, m int, rng *rand.Rand) *Graph {
	g := New(n)
	if n == 0 {
		return g
	}
	if m < 1 {
		m = 1
	}
	// Repeated-node list for degree-proportional sampling.
	var pool []int
	pool = append(pool, 0)
	for v := 1; v < n; v++ {
		seen := map[int]bool{}
		var targets []int // in draw order: map iteration would be nondeterministic
		k := m
		if v < m {
			k = v
		}
		for len(targets) < k {
			t := pool[rng.Intn(len(pool))]
			if t != v && !seen[t] {
				seen[t] = true
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			g.AddEdge(v, t) //nolint:errcheck
			pool = append(pool, t)
			pool = append(pool, v)
		}
		pool = append(pool, v)
	}
	return g
}
