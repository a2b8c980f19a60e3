package iplane

import (
	"math/rand"
	"testing"

	"locind/internal/asgraph"
)

func testGraph(t testing.TB) *asgraph.Graph {
	t.Helper()
	cfg := asgraph.DefaultSynthConfig()
	cfg.Tier2 = 60
	cfg.Stubs = 500
	g, err := asgraph.Synthesize(cfg, rand.New(rand.NewSource(55)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLinkLatencyProperties(t *testing.T) {
	g := testGraph(t)
	// Symmetric and deterministic.
	for _, pair := range [][2]int{{0, 1}, {5, 300}, {100, 101}} {
		a, b := pair[0], pair[1]
		l1 := LinkLatency(g, a, b)
		l2 := LinkLatency(g, b, a)
		if l1 != l2 {
			t.Fatalf("latency (%d,%d) asymmetric: %v vs %v", a, b, l1, l2)
		}
		if l1 <= 0 || l1 > 200 {
			t.Fatalf("latency (%d,%d) = %v out of sane range", a, b, l1)
		}
	}
	// Cross-region links must cost more than an intra-region access link.
	var intra, inter float64
	found := 0
	for x := 0; x < g.N() && found < 2; x++ {
		for _, pr := range g.Providers(x) {
			if g.Region(x) == g.Region(int(pr)) && intra == 0 {
				intra = LinkLatency(g, x, int(pr))
				found++
			}
			if g.Region(x) != g.Region(int(pr)) && inter == 0 {
				inter = LinkLatency(g, x, int(pr))
				found++
			}
		}
	}
	if found == 2 && inter <= intra {
		t.Fatalf("cross-region latency %v not above intra-region %v", inter, intra)
	}
}

func TestPredictorQuery(t *testing.T) {
	g := testGraph(t)
	stubs := g.StubsInRegion(asgraph.NorthAmerica)
	if len(stubs) < 20 {
		t.Fatal("not enough stubs")
	}
	p := Build(g, stubs[:40], 200, rand.New(rand.NewSource(2)))
	if len(p.pairLat) == 0 {
		t.Fatal("no measured pairs")
	}
	// Self-query always answers with 0.
	if lat, ok := p.Query(stubs[0], stubs[0]); !ok || lat != 0 {
		t.Fatalf("self query = %v, %v", lat, ok)
	}
	// Any covered pair must return the measured sub-path latency,
	// symmetric in direction.
	answered := 0
	for _, s := range stubs[:40] {
		for _, d := range stubs[:40] {
			if s == d {
				continue
			}
			l1, ok1 := p.Query(s, d)
			l2, ok2 := p.Query(d, s)
			if ok1 != ok2 {
				t.Fatalf("coverage asymmetric for (%d,%d)", s, d)
			}
			if ok1 {
				answered++
				if l1 != l2 {
					t.Fatalf("latency asymmetric for (%d,%d)", s, d)
				}
				if l1 <= 0 {
					t.Fatalf("non-positive predicted latency %v", l1)
				}
			}
		}
	}
	if answered == 0 {
		t.Fatal("no pair among traced targets answerable")
	}
}

func TestPredictorPartialCoverage(t *testing.T) {
	g := testGraph(t)
	var allStubs []int
	for r := asgraph.Region(0); r < asgraph.Region(6); r++ {
		allStubs = append(allStubs, g.StubsInRegion(r)...)
	}
	// Few traces over many targets: coverage must be well below 1 but
	// above 0 for queries among the traced population.
	p := Build(g, allStubs, 60, rand.New(rand.NewSource(9)))
	var pairs [][2]int
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 3000; i++ {
		pairs = append(pairs, [2]int{allStubs[rng.Intn(len(allStubs))], allStubs[rng.Intn(len(allStubs))]})
	}
	answered := 0
	for _, q := range pairs {
		if _, ok := p.Query(q[0], q[1]); ok {
			answered++
		}
	}
	cov := float64(answered) / float64(len(pairs))
	if cov <= 0 || cov > 0.5 {
		t.Fatalf("coverage = %v, want small but nonzero", cov)
	}
	t.Logf("coverage over random stub pairs: %.3f (target ~0.05)", cov)
}

func TestBuildDegenerate(t *testing.T) {
	g := testGraph(t)
	if p := Build(g, nil, 100, rand.New(rand.NewSource(1))); len(p.pairLat) != 0 {
		t.Fatal("no targets should measure nothing")
	}
	if p := Build(g, []int{1, 2}, 0, rand.New(rand.NewSource(1))); len(p.pairLat) != 0 {
		t.Fatal("zero traces should measure nothing")
	}
}

func TestBuildDeterminism(t *testing.T) {
	g := testGraph(t)
	stubs := g.StubsInRegion(asgraph.Europe)
	p1 := Build(g, stubs, 100, rand.New(rand.NewSource(4)))
	p2 := Build(g, stubs, 100, rand.New(rand.NewSource(4)))
	if len(p1.pairLat) != len(p2.pairLat) {
		t.Fatal("predictor not deterministic")
	}
}
