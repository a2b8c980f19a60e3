package cdn

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/netaddr"
	"locind/internal/stats"
)

func testWorld(t testing.TB) (*asgraph.Graph, *bgp.PrefixTable) {
	t.Helper()
	cfg := asgraph.DefaultSynthConfig()
	cfg.Tier2 = 80
	cfg.Stubs = 700
	g, err := asgraph.Synthesize(cfg, rand.New(rand.NewSource(101)))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := bgp.NewPrefixTable(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, pt
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.PopularDomains = 60
	cfg.UnpopularDomains = 60
	return cfg
}

func genDeployment(t testing.TB, seed int64) *Deployment {
	t.Helper()
	g, pt := testWorld(t)
	d, err := Generate(g, pt, smallConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateNamespaceShape(t *testing.T) {
	d := genDeployment(t, 1)
	var pop, unpop []Site
	for _, s := range d.Sites {
		if s.Class == Popular {
			pop = append(pop, s)
		} else {
			unpop = append(unpop, s)
		}
	}
	if len(pop) == 0 || len(unpop) == 0 {
		t.Fatal("empty classes")
	}
	// Popular domains should expand to roughly SubdomainMeanPopular names
	// apiece; unpopular barely expand at all.
	if got := float64(len(pop)) / 60; got < 12 || got > 40 {
		t.Errorf("popular expansion = %.1f names/domain, want ~25", got)
	}
	if got := float64(len(unpop)) / 60; got > 3 {
		t.Errorf("unpopular expansion = %.1f names/domain, want ~2", got)
	}
	// CDN delegation fractions at the domain (apex grouping) level.
	cdnPop, domPop := 0, 0
	for _, s := range pop {
		if s.Parent == "" {
			domPop++
		}
		if s.CDN {
			cdnPop++
		}
	}
	if domPop != 60 {
		t.Fatalf("popular apex count = %d", domPop)
	}
	if cdnPop == 0 {
		t.Error("no CDN-delegated popular names")
	}
	cdnUnpop := 0
	for _, s := range unpop {
		if s.CDN {
			cdnUnpop++
		}
	}
	if float64(cdnUnpop)/float64(len(unpop)) > 0.1 {
		t.Errorf("unpopular CDN fraction too high: %d/%d", cdnUnpop, len(unpop))
	}
	// Subdomains must carry their parent.
	for _, s := range pop {
		if s.Parent != "" && !strings.HasSuffix(string(s.Name), "."+string(s.Parent)) {
			t.Fatalf("site %q not a subdomain of parent %q", s.Name, s.Parent)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	g, pt := testWorld(t)
	bad := smallConfig()
	bad.PopularDomains = 0
	if _, err := Generate(g, pt, bad, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero popular domains should fail")
	}
	tiny := asgraph.NewGraph(3)
	pt2, _ := bgp.NewPrefixTable(tiny, 0)
	if _, err := Generate(tiny, pt2, smallConfig(), rand.New(rand.NewSource(1))); err == nil {
		t.Error("graph without stub pools should fail")
	}
	_ = pt
}

func TestTimelineReconstruction(t *testing.T) {
	d := genDeployment(t, 2)
	tls := d.Timelines(24*7, rand.New(rand.NewSource(3)))
	if len(tls) != len(d.Sites) {
		t.Fatalf("%d timelines for %d sites", len(tls), len(d.Sites))
	}
	for i := range tls {
		tl := &tls[i]
		if len(tl.Initial) == 0 {
			t.Fatalf("site %q has empty initial set", tl.Site.Name)
		}
		// SetAt(0) equals Initial.
		s0 := tl.SetAt(0)
		if len(s0) != len(tl.Initial) {
			t.Fatalf("site %q SetAt(0) = %v vs initial %v", tl.Site.Name, s0, tl.Initial)
		}
		// Walk must visit every event with consistent before/after deltas.
		n := 0
		tl.Walk(func(e Event, before, after []netaddr.Addr) {
			n++
			if len(e.Removed) == 0 && len(e.Added) == 0 {
				t.Fatal("empty event")
			}
			// after = before - removed + added.
			want := map[netaddr.Addr]bool{}
			for _, a := range before {
				want[a] = true
			}
			for _, a := range e.Removed {
				delete(want, a)
			}
			for _, a := range e.Added {
				want[a] = true
			}
			if len(want) != len(after) {
				t.Fatalf("site %q event at %d inconsistent", tl.Site.Name, e.Hour)
			}
			for _, a := range after {
				if !want[a] {
					t.Fatalf("site %q event at %d produced unexpected addr %v", tl.Site.Name, e.Hour, a)
				}
			}
		})
		if n != tl.EventCount() {
			t.Fatalf("walk visited %d of %d events", n, tl.EventCount())
		}
		// The set must never go empty.
		if len(tl.SetAt(tl.Hours-1)) == 0 {
			t.Fatalf("site %q drained its address set", tl.Site.Name)
		}
	}
}

// TestContentCalibration checks the Figure 11a facts: popular content sees a
// median of ~2 mobility events per day (bounded by 24 via hourly sampling),
// while unpopular content barely moves at all.
func TestContentCalibration(t *testing.T) {
	g, pt := testWorld(t)
	cfg := DefaultConfig()
	cfg.PopularDomains = 150
	cfg.UnpopularDomains = 150
	d, err := Generate(g, pt, cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	days := 21
	tls := d.Timelines(24*days, rand.New(rand.NewSource(6)))

	var popPerDay, unpopPerDay []float64
	for i := range tls {
		avg := float64(tls[i].EventCount()) / float64(days)
		if tls[i].Site.Class == Popular {
			popPerDay = append(popPerDay, avg)
		} else {
			unpopPerDay = append(unpopPerDay, avg)
		}
	}
	pop := stats.NewCDF(popPerDay)
	unpop := stats.NewCDF(unpopPerDay)
	if m := pop.Median(); m < 0.8 || m > 4.5 {
		t.Errorf("popular median events/day = %.2f, want ~2", m)
	}
	if hi := pop.Max(); hi > 24 {
		t.Errorf("popular max events/day = %.2f, cannot exceed hourly sampling bound", hi)
	}
	if m := unpop.Quantile(0.9); m > 0.2 {
		t.Errorf("unpopular p90 events/day = %.3f, want near zero", m)
	}
	t.Logf("popular events/day: median=%.2f p90=%.2f max=%.1f; unpopular mean=%.4f",
		pop.Median(), pop.Quantile(0.9), pop.Max(), stats.Mean(unpopPerDay))
}

// syntheticTimeline builds a replay-only timeline of the given length: a
// two-address set where every event retires the previously added address
// and introduces a fresh one.
func syntheticTimeline(events int) Timeline {
	tl := Timeline{Hours: events + 2, Initial: []netaddr.Addr{10, 20}}
	for i := 0; i < events; i++ {
		ev := Event{Hour: i + 1, Added: []netaddr.Addr{netaddr.Addr(1000 + i)}}
		if i == 0 {
			ev.Removed = []netaddr.Addr{10}
		} else {
			ev.Removed = []netaddr.Addr{netaddr.Addr(1000 + i - 1)}
		}
		tl.Events = append(tl.Events, ev)
	}
	return tl
}

// The inlined FNV-1a in edgeAddr must stay byte-identical to the
// fnv.New64a + Fprintf formulation it replaced, or every content timeline
// in every fixture would silently change.
func TestEdgeAddrMatchesFNVReference(t *testing.T) {
	d := genDeployment(t, 3)
	ref := func(site Name, edgeAS, generation int) netaddr.Addr {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%d|%d", site, edgeAS, generation)
		return d.pt.AddrIn(edgeAS, h.Sum64()%(1<<16))
	}
	for _, site := range []Name{d.Sites[0].Name, d.Sites[len(d.Sites)-1].Name, "a.b.example.test", ""} {
		for _, as := range []int{d.Sites[0].OriginAS, d.EdgePool[0], d.EdgePool[len(d.EdgePool)-1]} {
			for _, gen := range []int{0, 1, 7, 1003, 2048} {
				if got, want := d.edgeAddr(site, as, gen), ref(site, as, gen); got != want {
					t.Fatalf("edgeAddr(%q, %d, %d) = %v, reference FNV gives %v", site, as, gen, got, want)
				}
			}
		}
	}
}

func TestTimelinesDeterministic(t *testing.T) {
	d := genDeployment(t, 7)
	a := d.Timelines(48, rand.New(rand.NewSource(9)))
	b := d.Timelines(48, rand.New(rand.NewSource(9)))
	for i := range a {
		if a[i].EventCount() != b[i].EventCount() {
			t.Fatalf("timeline %d diverged", i)
		}
	}
}

// The per-site RNG derivation must make the parallel sweep bit-identical to
// the sequential one at every worker count.
func TestTimelinesParallelMatchesSequential(t *testing.T) {
	d := genDeployment(t, 7)
	seq := d.TimelinesParallel(48, rand.New(rand.NewSource(9)), 1)
	for _, workers := range []int{4, 0} {
		got := d.TimelinesParallel(48, rand.New(rand.NewSource(9)), workers)
		if !reflect.DeepEqual(seq, got) {
			t.Fatalf("parallel=%d sweep diverged from sequential", workers)
		}
	}
	// And Timelines itself is the sequential case.
	if !reflect.DeepEqual(seq, d.Timelines(48, rand.New(rand.NewSource(9)))) {
		t.Fatal("Timelines diverged from TimelinesParallel(…, 1)")
	}
}

func TestCompleteTable(t *testing.T) {
	d := genDeployment(t, 11)
	tls := d.Timelines(24, rand.New(rand.NewSource(12)))
	tab := CompleteTable(tls, 0)
	if len(tab) != len(tls) {
		t.Fatalf("table size %d", len(tab))
	}
	for n, addrs := range tab {
		if len(addrs) == 0 {
			t.Fatalf("empty set for %q", n)
		}
	}
}

func TestClassString(t *testing.T) {
	if Popular.String() != "popular" || Unpopular.String() != "unpopular" {
		t.Fatal("class names wrong")
	}
}

func BenchmarkTimelineWalk(b *testing.B) {
	tl := syntheticTimeline(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Walk(func(_ Event, _, _ []netaddr.Addr) {})
	}
}

func BenchmarkTimelines(b *testing.B) {
	g, pt := testWorld(b)
	cfg := smallConfig()
	d, err := Generate(g, pt, cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Timelines(24*7, rand.New(rand.NewSource(int64(i))))
	}
}
