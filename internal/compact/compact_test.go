package compact

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"locind/internal/topology"
)

func mustScheme(t *testing.T, g *topology.Graph, lms int, seed int64) *Scheme {
	t.Helper()
	s, err := New(g, lms, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewErrors(t *testing.T) {
	if _, err := New(topology.New(0), 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty should fail")
	}
	g := topology.New(4)
	g.AddEdge(0, 1) //nolint:errcheck
	if _, err := New(g, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("disconnected should fail")
	}
	// Landmark count clamps to n.
	s := mustScheme(t, topology.Clique(5), 99, 1)
	if len(s.landmarks) != 5 {
		t.Fatalf("landmarks = %d", len(s.landmarks))
	}
}

func TestDefaultLandmarkCount(t *testing.T) {
	g := topology.Grid(10, 10)
	s := mustScheme(t, g, 0, 2)
	want := int(math.Ceil(math.Sqrt(100)))
	if len(s.landmarks) != want {
		t.Fatalf("landmarks = %d, want %d", len(s.landmarks), want)
	}
}

// The Thorup–Zwick guarantee: with the cluster condition
// dist(r, w) < dist(w, lm(w)), every route has multiplicative stretch <= 3.
func TestStretchBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		g    *topology.Graph
	}{
		{"grid", topology.Grid(8, 8)},
		{"pa", topology.PreferentialAttachment(120, 2, rng)},
		{"ring", topology.Ring(40)},
		{"chain", topology.Chain(40)},
	} {
		s := mustScheme(t, tc.g, 0, 11)
		ev, err := s.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		if ev.MaxStretch > 3.0+1e-9 {
			t.Errorf("%s: max stretch %.3f exceeds the TZ bound 3 (pair %v)",
				tc.name, ev.MaxStretch, ev.WorstCasePair)
		}
		if ev.MeanStretch < 1 {
			t.Errorf("%s: mean stretch %.3f below 1", tc.name, ev.MeanStretch)
		}
		t.Logf("%s: %s", tc.name, ev)
	}
}

// Routes to landmarks and cluster members must be exactly shortest.
func TestExactRoutesWhereTablesExist(t *testing.T) {
	g := topology.Grid(7, 7)
	s := mustScheme(t, g, 0, 3)
	hops := g.AllPairsHops()
	for _, lm := range s.landmarks {
		for src := 0; src < g.N(); src++ {
			got, err := s.Route(src, s.AddressOf(lm))
			if err != nil {
				t.Fatal(err)
			}
			if got != hops[src][lm] {
				t.Fatalf("route to landmark %d from %d = %d, want %d", lm, src, got, hops[src][lm])
			}
		}
	}
	if d, err := s.Route(5, s.AddressOf(5)); err != nil || d != 0 {
		t.Fatalf("self route = (%d, %v), want 0", d, err)
	}
}

// Table sizes must be far below the flat-routing n-1 on graphs where
// compact routing pays off, scaling like sqrt(n) on expanders.
func TestTableCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := topology.PreferentialAttachment(400, 3, rng)
	s := mustScheme(t, g, 0, 13)
	ev, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if ev.MeanTable >= float64(ev.FlatTable)/3 {
		t.Fatalf("mean table %.1f not well below flat %d", ev.MeanTable, ev.FlatTable)
	}
	t.Logf("compression: %s", ev)
}

// More landmarks = bigger tables but never worse guaranteed structure;
// fewer landmarks = smaller landmark tables but bigger clusters. The
// product of the trade-off: mean stretch decreases (weakly) as clusters
// grow with fewer landmarks being compensated... simply verify the curve is
// computable and stretch stays bounded at both extremes.
func TestLandmarkSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := topology.PreferentialAttachment(150, 2, rng)
	for _, k := range []int{2, 6, 12, 30, 75} {
		s := mustScheme(t, g, k, 5)
		ev, err := s.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		if ev.MaxStretch > 3+1e-9 {
			t.Errorf("k=%d: stretch bound broken: %v", k, ev)
		}
	}
}

func BenchmarkEvaluate(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := topology.PreferentialAttachment(200, 2, rng)
	s, err := New(g, 0, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}

// A malformed address naming a landmark the scheme never chose must surface
// as an error, not a panic — the router drops the packet and reports it.
func TestRouteUnknownLandmark(t *testing.T) {
	g := topology.Chain(20)
	s := mustScheme(t, g, 2, 1)
	isLandmark := map[int]bool{}
	for _, lm := range s.landmarks {
		isLandmark[lm] = true
	}
	checked := false
	for src := 0; src < g.N() && !checked; src++ {
		for dst := 0; dst < g.N(); dst++ {
			if dst == src || isLandmark[dst] || s.hops[src][dst] < s.distToLm[dst] {
				continue
			}
			for _, lm := range []int{-1, g.N()} {
				if _, err := s.Route(src, Address{Node: dst, Landmark: lm}); err == nil {
					t.Fatalf("route %d->%d with bogus landmark %d must error", src, dst, lm)
				}
			}
			checked = true
			break
		}
	}
	if !checked {
		t.Fatal("no pair exercised the landmark lookup")
	}
}

// A source or destination node outside the topology is a malformed packet
// too, whatever landmark the address names; so is a landmark that is a
// node but not one of the scheme's landmarks.
func TestRouteMalformedAddress(t *testing.T) {
	g := topology.Chain(30)
	s := mustScheme(t, g, 3, 1)
	n, lm := g.N(), s.landmarks[0]
	for _, tc := range []struct {
		src int
		dst Address
	}{
		{0, Address{Node: n, Landmark: lm}},
		{0, Address{Node: -1, Landmark: lm}},
		{n, s.AddressOf(0)},
		{-1, s.AddressOf(0)},
	} {
		if _, err := s.Route(tc.src, tc.dst); err == nil {
			t.Errorf("Route(%d, %+v) must error", tc.src, tc.dst)
		}
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if dst == src || s.isLandmark[dst] || s.hops[src][dst] < s.distToLm[dst] {
				continue
			}
			if _, err := s.Route(src, Address{Node: dst, Landmark: dst}); err == nil {
				t.Fatalf("route %d->%d naming non-landmark %d must error", src, dst, dst)
			}
			return
		}
	}
	t.Fatal("no pair exercised the landmark lookup")
}

// oracle is the scheme as it was built before it shared the graph's table:
// a distance row per landmark, explicit cluster lists, and a Route that
// scans the landmark list, then src's cluster, then the landmark list again.
type oracle struct {
	landmarks []int
	nearest   []int
	distToLm  []int
	cluster   [][]int
	lmDist    [][]int
	hops      [][]int
}

func newOracle(g *topology.Graph, lms []int) *oracle {
	n := g.N()
	s := &oracle{
		landmarks: lms,
		nearest:   make([]int, n),
		distToLm:  make([]int, n),
		cluster:   make([][]int, n),
		lmDist:    make([][]int, len(lms)),
		hops:      make([][]int, n),
	}
	hops := g.AllPairsHops() // copied, so a write into the shared rows shows
	for u := range s.hops {
		s.hops[u] = append([]int(nil), hops[u]...)
	}
	for i, lm := range lms {
		s.lmDist[i] = append([]int(nil), hops[lm]...)
	}
	for v := 0; v < n; v++ {
		bestLm, bestD := lms[0], s.lmDist[0][v]
		for i := 1; i < len(lms); i++ {
			if s.lmDist[i][v] < bestD {
				bestLm, bestD = lms[i], s.lmDist[i][v]
			}
		}
		s.nearest[v] = bestLm
		s.distToLm[v] = bestD
	}
	for r := 0; r < n; r++ {
		for w := 0; w < n; w++ {
			if w == r {
				continue
			}
			if s.hops[r][w] < s.distToLm[w] {
				s.cluster[r] = append(s.cluster[r], w)
			}
		}
	}
	return s
}

func (s *oracle) Route(src int, dst Address) (int, error) {
	if src == dst.Node {
		return 0, nil
	}
	for i, lm := range s.landmarks {
		if lm == dst.Node {
			return s.lmDist[i][src], nil
		}
	}
	for _, w := range s.cluster[src] {
		if w == dst.Node {
			return s.hops[src][dst.Node], nil
		}
	}
	// Via the landmark: src -> lm(dst) -> dst.
	li, err := s.landmarkIndex(dst.Landmark)
	if err != nil {
		return 0, err
	}
	return s.lmDist[li][src] + s.lmDist[li][dst.Node], nil
}

func (s *oracle) landmarkIndex(lm int) (int, error) {
	for i, l := range s.landmarks {
		if l == lm {
			return i, nil
		}
	}
	return 0, fmt.Errorf("compact: address with unknown landmark %d", lm)
}

// Route, AddressOf and TableSize must agree with the list-scanning oracle
// on every ordered pair, at RunCompact's five landmark budgets, on its
// PA-256 over three seeds and on Table 1's four topologies; an address
// whose landmark is bogus must fail exactly where the oracle's does.
func TestRouteMatchesOracle(t *testing.T) {
	graphs := map[string]*topology.Graph{
		"chain":       topology.Chain(63),
		"clique":      topology.Clique(63),
		"binary-tree": topology.BinaryTree(63),
		"star":        topology.Star(63),
	}
	for seed := int64(1); seed <= 3; seed++ {
		graphs[fmt.Sprintf("pa-256/%d", seed)] = topology.PreferentialAttachment(256, 2, rand.New(rand.NewSource(seed)))
	}
	for name, g := range graphs {
		for _, k := range []int{4, 8, 16, 32, 64} {
			s := mustScheme(t, g, k, int64(k))
			o := newOracle(g, s.landmarks)
			for src := 0; src < g.N(); src++ {
				if got, want := s.TableSize(src), len(o.landmarks)+len(o.cluster[src]); got != want {
					t.Fatalf("%s k=%d: TableSize(%d) = %d, oracle %d", name, k, src, got, want)
				}
				for dst := 0; dst < g.N(); dst++ {
					addr := s.AddressOf(dst)
					if want := (Address{Node: dst, Landmark: o.nearest[dst]}); addr != want {
						t.Fatalf("%s k=%d: AddressOf(%d) = %+v, oracle %+v", name, k, dst, addr, want)
					}
					for _, a := range []Address{addr, {Node: dst, Landmark: -1}} {
						got, gotErr := s.Route(src, a)
						want, wantErr := o.Route(src, a)
						if got != want || (gotErr == nil) != (wantErr == nil) {
							t.Fatalf("%s k=%d: Route(%d, %+v) = (%d, %v), oracle (%d, %v)",
								name, k, src, a, got, gotErr, want, wantErr)
						}
					}
				}
			}
		}
	}
}
