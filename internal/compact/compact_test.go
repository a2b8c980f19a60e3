package compact

import (
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
		inCluster := map[int]bool{}
		for _, w := range s.cluster[src] {
			inCluster[w] = true
		}
		for dst := 0; dst < g.N(); dst++ {
			if dst == src || isLandmark[dst] || inCluster[dst] {
				continue
			}
			if _, err := s.Route(src, Address{Node: dst, Landmark: -1}); err == nil {
				t.Fatalf("route %d->%d with bogus landmark must error", src, dst)
			}
			checked = true
			break
		}
	}
	if !checked {
		t.Fatal("no pair exercised the landmark lookup")
	}
	if _, err := s.landmarkIndex(-1); err == nil {
		t.Fatal("unknown landmark index must error")
	}
}
