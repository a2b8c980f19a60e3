package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestNewAndEdges(t *testing.T) {
	g := New(3)
	if g.N() != 3 || g.M() != 0 {
		t.Fatalf("empty graph N=%d M=%d", g.N(), g.M())
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Fatal("duplicate edge should fail")
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Fatal("reversed duplicate edge should fail")
	}
	if err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop should fail")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Fatal("out-of-range should fail")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge should be symmetric")
	}
	if g.HasEdge(1, 2) || g.HasEdge(-1, 0) {
		t.Fatal("HasEdge false positives")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Fatal("Degree wrong")
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestChain(t *testing.T) {
	g := Chain(5)
	if g.M() != 4 {
		t.Fatalf("chain edges = %d", g.M())
	}
	if d := g.HopDist(0, 4); d != 4 {
		t.Fatalf("chain end-to-end = %d", d)
	}
	if g.Diameter() != 4 {
		t.Fatalf("chain diameter = %d", g.Diameter())
	}
	if !g.Connected() {
		t.Fatal("chain should be connected")
	}
}

func TestClique(t *testing.T) {
	g := Clique(6)
	if g.M() != 15 {
		t.Fatalf("clique edges = %d", g.M())
	}
	if g.Diameter() != 1 {
		t.Fatalf("clique diameter = %d", g.Diameter())
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(7) // perfect tree of depth 2
	if g.M() != 6 {
		t.Fatalf("tree edges = %d", g.M())
	}
	// Distance between the two deepest leaves in different subtrees: 4.
	if d := g.HopDist(3, 6); d != 4 {
		t.Fatalf("leaf-to-leaf = %d", d)
	}
	if g.Diameter() != 4 {
		t.Fatalf("tree diameter = %d", g.Diameter())
	}
}

func TestStar(t *testing.T) {
	g := Star(10) // 11 nodes
	if g.N() != 11 || g.M() != 10 {
		t.Fatalf("star N=%d M=%d", g.N(), g.M())
	}
	if g.Diameter() != 2 {
		t.Fatalf("star diameter = %d", g.Diameter())
	}
	if g.Degree(0) != 10 {
		t.Fatalf("center degree = %d", g.Degree(0))
	}
}

func TestRingAndGrid(t *testing.T) {
	r := Ring(6)
	if r.M() != 6 || r.Diameter() != 3 {
		t.Fatalf("ring M=%d diam=%d", r.M(), r.Diameter())
	}
	if Ring(2).M() != 0 {
		t.Fatal("degenerate ring should have no edges")
	}
	g := Grid(3, 4)
	if g.M() != 3*3+2*4 {
		t.Fatalf("grid M=%d", g.M())
	}
	if g.Diameter() != 5 {
		t.Fatalf("grid diameter = %d", g.Diameter())
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1) //nolint:errcheck
	d, parent := g.BFS(0)
	if d[1] != 1 || d[2] != -1 || d[3] != -1 {
		t.Fatalf("BFS dist = %v", d)
	}
	if parent[2] != -1 {
		t.Fatal("unreachable parent should be -1")
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if g.Diameter() != -1 {
		t.Fatal("disconnected diameter should be -1")
	}
	if g.HopDist(0, 2) != -1 {
		t.Fatal("unreachable HopDist should be -1")
	}
}

func TestBFSBadSource(t *testing.T) {
	g := Chain(3)
	d, _ := g.BFS(-1)
	for _, x := range d {
		if x != -1 {
			t.Fatal("BFS from bad source should mark all unreachable")
		}
	}
}

func TestPathReconstruction(t *testing.T) {
	g := Chain(5)
	_, parent := g.BFS(0)
	p := Path(parent, 0, 4)
	want := []int{0, 1, 2, 3, 4}
	if len(p) != len(want) {
		t.Fatalf("path = %v", p)
	}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
	if Path(parent, 0, 0) == nil {
		t.Fatal("trivial path should be non-nil")
	}
	g2 := New(3)
	_, par2 := g2.BFS(0)
	if Path(par2, 0, 2) != nil {
		t.Fatal("unreachable path should be nil")
	}
}

func TestGNPDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := GNP(100, 0.1, rng)
	maxEdges := 100 * 99 / 2
	frac := float64(g.M()) / float64(maxEdges)
	if frac < 0.07 || frac > 0.13 {
		t.Fatalf("GNP density = %v, want ~0.1", frac)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := PreferentialAttachment(300, 2, rng)
	if !g.Connected() {
		t.Fatal("PA graph should be connected")
	}
	// Heavy tail: max degree should dwarf the median degree.
	maxDeg, sumDeg := 0, 0
	for v := 0; v < g.N(); v++ {
		d := g.Degree(v)
		sumDeg += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(sumDeg) / float64(g.N())
	if float64(maxDeg) < 4*avg {
		t.Fatalf("PA max degree %d not heavy-tailed vs avg %.1f", maxDeg, avg)
	}
	if PreferentialAttachment(0, 2, rng).N() != 0 {
		t.Fatal("empty PA should work")
	}
	if !PreferentialAttachment(5, 0, rng).Connected() {
		t.Fatal("m<1 should be clamped to 1 and stay connected")
	}
}

// A fixed seed must build the same graph every time. The generator once
// inserted each node's edges in map-iteration order, which reordered the
// degree-proportional pool and made every downstream pa-* experiment drift
// run to run.
func TestPreferentialAttachmentDeterministic(t *testing.T) {
	build := func() []string {
		g := PreferentialAttachment(120, 2, rand.New(rand.NewSource(4)))
		edges := make([]string, 0, g.N())
		for v := 0; v < g.N(); v++ {
			edges = append(edges, fmt.Sprint(g.Neighbors(v)))
		}
		return edges
	}
	a, b := build(), build()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d adjacency diverged across identical seeds: %s vs %s", v, a[v], b[v])
		}
	}
}

func TestAllPairsHopsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := GNP(30, 0.2, rng)
	ap := g.AllPairsHops()
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if ap[u][v] != ap[v][u] {
				t.Fatalf("asymmetric hops %d,%d", u, v)
			}
		}
		if ap[u][u] != 0 {
			t.Fatalf("self distance %d", ap[u][u])
		}
	}
}

// Property: on random graphs, BFS distances satisfy the triangle
// inequality through any intermediate node, parents always step exactly one
// hop closer to the source, and Path endpoints/lengths agree with dist.
func TestBFSInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		g := GNP(30, 0.12, rng)
		src := rng.Intn(g.N())
		dist, parent := g.BFS(src)
		for v := 0; v < g.N(); v++ {
			if dist[v] < 0 {
				continue
			}
			if v != src {
				p := parent[v]
				if p < 0 || dist[p] != dist[v]-1 || !g.HasEdge(p, v) {
					t.Fatalf("trial %d: bad parent %d for %d", trial, p, v)
				}
			}
			path := Path(parent, src, v)
			if len(path) != dist[v]+1 || path[0] != src || path[len(path)-1] != v {
				t.Fatalf("trial %d: bad path %v for dist %d", trial, path, dist[v])
			}
			for _, e := range g.Neighbors(v) {
				if dist[e.To] >= 0 && dist[e.To] > dist[v]+1 {
					t.Fatalf("trial %d: triangle inequality broken at %d-%d", trial, v, e.To)
				}
			}
		}
	}
}

// NextHops is the forwarding table every §5 package reads: the diagonal is
// the local port -1, every other entry is the BFS parent of r in loc's tree —
// a neighbor of r one hop closer to loc — and an unreachable pair is -1.
func TestNextHops(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 20; trial++ {
		g := GNP(30, 0.08, rng)
		next := g.NextHops()
		if len(next) != g.N() {
			t.Fatalf("trial %d: %d rows for %d nodes", trial, len(next), g.N())
		}
		for loc, row := range next {
			dist, parent := g.BFS(loc)
			for r, hop := range row {
				switch {
				case r == loc || dist[r] < 0:
					if hop != -1 {
						t.Fatalf("trial %d: next[%d][%d] = %d, want -1", trial, loc, r, hop)
					}
				case hop != parent[r] || !g.HasEdge(r, hop) || dist[hop] != dist[r]-1:
					t.Fatalf("trial %d: next[%d][%d] = %d, BFS parent %d", trial, loc, r, hop, parent[r])
				}
			}
		}
	}
	if next := New(0).NextHops(); len(next) != 0 {
		t.Fatalf("empty graph: %v", next)
	}
}

// The shared table is one BFS per source: on every builder, row u of
// AllPairsHops is BFS(u)'s dist and row u of NextHops its parent, with the
// local port -1 on the diagonal.
func TestAllPairsTableMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for name, g := range map[string]*Graph{
		"empty":  New(0),
		"single": New(1),
		"chain":  Chain(9),
		"clique": Clique(7),
		"tree":   BinaryTree(15),
		"star":   Star(8),
		"ring":   Ring(11),
		"grid":   Grid(4, 5),
		"pa":     PreferentialAttachment(60, 2, rng),
		"gnp":    GNP(25, 0.07, rng), // usually disconnected
	} {
		hops, next := g.AllPairsHops(), g.NextHops()
		if len(hops) != g.N() || len(next) != g.N() {
			t.Fatalf("%s: %d and %d rows for %d nodes", name, len(hops), len(next), g.N())
		}
		for u := 0; u < g.N(); u++ {
			dist, parent := g.BFS(u)
			parent[u] = -1
			if !slices.Equal(hops[u], dist) || !slices.Equal(next[u], parent) {
				t.Fatalf("%s: row %d = %v / %v, BFS %v / %v", name, u, hops[u], next[u], dist, parent)
			}
		}
	}
}

// AddEdge drops the table: a graph read, extended, then read again answers
// with the new distances and next hops.
func TestAllPairsTableFollowsAddEdge(t *testing.T) {
	g := Chain(6)
	if d := g.AllPairsHops()[0][5]; d != 5 {
		t.Fatalf("chain end to end = %d", d)
	}
	if h := g.NextHops()[5][0]; h != 1 {
		t.Fatalf("chain next hop 0 -> 5 = %d", h)
	}
	if err := g.AddEdge(0, 5); err != nil {
		t.Fatal(err)
	}
	if d := g.AllPairsHops()[0][5]; d != 1 {
		t.Fatalf("after AddEdge(0, 5): distance %d, want 1", d)
	}
	if h := g.NextHops()[5][0]; h != 5 {
		t.Fatalf("after AddEdge(0, 5): next hop %d, want 5", h)
	}
}

// Concurrent first readers of a fresh graph fill the table once and all
// see it (run under go test -race).
func TestAllPairsTableConcurrentReaders(t *testing.T) {
	g := PreferentialAttachment(80, 2, rand.New(rand.NewSource(80)))
	var wg sync.WaitGroup
	rows := make([][2][][]int, 8)
	for i := range rows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				rows[i][0] = g.AllPairsHops()
				rows[i][1] = g.NextHops()
			} else {
				rows[i][1] = g.NextHops()
				rows[i][0] = g.AllPairsHops()
			}
		}(i)
	}
	wg.Wait()
	for i, r := range rows {
		for k := range r {
			if &r[k][0][0] != &rows[0][k][0][0] {
				t.Fatalf("reader %d saw a second table", i)
			}
		}
	}
}

// BFS, the accessors, the path reconstruction and the random-graph builder
// below are what these tests judge the builders and the table with; no
// binary needs them.

// BFS computes unweighted hop distances from src. Unreachable nodes get -1.
// The returned parent slice lets callers reconstruct one shortest-path tree
// (parent[src] == src).
func (g *Graph) BFS(src int) (dist []int, parent []int) {
	dist, parent = make([]int, g.n), make([]int, g.n)
	if src < 0 || src >= g.n {
		for i := range dist {
			dist[i], parent[i] = -1, -1
		}
		return dist, parent
	}
	g.bfs(src, dist, parent, make([]int, 0, g.n))
	return dist, parent
}

// M returns the number of (undirected) edges.
func (g *Graph) M() int {
	total := 0
	for _, es := range g.adj {
		total += len(es)
	}
	return total / 2
}

// Neighbors returns the half-edges out of u. The returned slice must not be
// modified.
func (g *Graph) Neighbors(u int) []Edge { return g.adj[u] }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// HopDist returns the hop distance between u and v (-1 if disconnected).
func (g *Graph) HopDist(u, v int) int {
	d, _ := g.BFS(u)
	if v < 0 || v >= g.n {
		return -1
	}
	return d[v]
}

// Path reconstructs the node sequence src..dst from a parent slice produced
// by BFS or Dijkstra rooted at src. It returns nil if dst is unreachable.
func Path(parent []int, src, dst int) []int {
	if dst < 0 || dst >= len(parent) || parent[dst] == -1 {
		return nil
	}
	var rev []int
	for v := dst; ; v = parent[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
		if parent[v] == v || parent[v] == -1 {
			if v != src {
				return nil
			}
		}
		if len(rev) > len(parent) {
			return nil // cycle guard; malformed parent slice
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if rev[0] != src {
		return nil
	}
	return rev
}

// GNP builds an Erdős–Rényi G(n, p) random graph using rng.
func GNP(n int, p float64, rng *rand.Rand) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j) //nolint:errcheck
			}
		}
	}
	return g
}

// Diameter returns the largest finite hop distance, or -1 if the graph is
// disconnected or empty.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return -1
	}
	maxd := 0
	for u := 0; u < g.n; u++ {
		d, _ := g.BFS(u)
		for _, x := range d {
			if x == -1 {
				return -1
			}
			if x > maxd {
				maxd = x
			}
		}
	}
	return maxd
}
