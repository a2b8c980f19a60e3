package bgp

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"locind/internal/asgraph"
	"locind/internal/netaddr"
)

// buildCollectorsByRoute is the build BuildCollectors replaced, kept as its
// oracle: collector → session → prefix, one public RIB.Add per route, a
// fresh RoutesTo and a fresh path per (origin, session), the FIB derived
// afterwards. It draws from rng exactly as BuildCollectors does. Because it
// goes through Add, the one test below holds the batch store (session
// attribute table, shared path table, fused best selection) and the
// interning store (attribute map, own paths, DeriveFIB) to the same answer.
func buildCollectorsByRoute(g *asgraph.Graph, pt *PrefixTable, specs []Spec, rng *rand.Rand) ([]*Collector, error) {
	cols := make([]*Collector, 0, len(specs))
	for _, spec := range specs {
		c, err := NewCollector(g, spec, rng)
		if err != nil {
			return nil, err
		}
		c.RIB = NewRIB()
		cols = append(cols, c)
	}
	byOrigin := map[int][]PrefixOrigin{}
	for _, po := range pt.All() {
		byOrigin[po.Origin] = append(byOrigin[po.Origin], po)
	}
	for origin := 0; origin < g.N(); origin++ {
		pos := byOrigin[origin]
		if len(pos) == 0 {
			continue
		}
		rt := g.RoutesTo(origin)
		for _, c := range cols {
			for _, s := range c.Sessions {
				path := rt.Path(s.PeerAS)
				if path == nil {
					continue
				}
				for _, po := range pos {
					c.RIB.Add(Route{
						Prefix:  po.Prefix,
						NextHop: s.PeerAS,
						MED:     s.MED,
						ASPath:  path,
						Rel:     s.Rel,
					})
				}
			}
		}
	}
	for _, c := range cols {
		c.FIB = c.RIB.DeriveFIB()
	}
	return cols, nil
}

// Routes returns the candidate routes for prefix p in the order they were
// added (nil if none). The slice is materialised for the caller and is its
// own; each ASPath is a view of the RIB's path store and must not be modified.
// Routes and Best live here because only the comparisons in this package's
// tests read a RIB prefix by prefix: production goes through WriteRIB and
// the FIB.
func (r *RIB) Routes(p netaddr.Prefix) []Route {
	var rs []Route
	for _, c := range r.byPrefix[p] {
		rs = append(rs, r.route(p, c))
	}
	return rs
}

// Best runs the decision process over the candidates for p.
func (r *RIB) Best(p netaddr.Prefix) (Route, bool) {
	cs := r.byPrefix[p]
	if len(cs) == 0 {
		return Route{}, false
	}
	return r.route(p, r.best(p, cs)), true
}

type fibEntry struct {
	Prefix netaddr.Prefix
	Route  Route
}

func fibEntries(f *FIB) []fibEntry {
	var out []fibEntry
	f.Walk(func(p netaddr.Prefix, rt Route) bool {
		out = append(out, fibEntry{p, rt})
		return true
	})
	return out
}

// TestBuildCollectorsMatchesByRouteOracle builds all 25 collectors both
// ways on three internets and requires the same sessions, the same
// candidates in the same order for every prefix, the same FIB walk, and a
// byte-identical RIB dump.
func TestBuildCollectorsMatchesByRouteOracle(t *testing.T) {
	specs := append(RouteViewsSpecs(), RIPESpecs()...)
	for _, seed := range []int64{20140817, 7, 424242} {
		g, pt := testInternet(t, seed)
		got, err := BuildCollectors(g, pt, specs, rand.New(rand.NewSource(seed+100)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := buildCollectorsByRoute(g, pt, specs, rand.New(rand.NewSource(seed+100)))
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			c := got[i]
			if c.Name != w.Name || c.HostAS != w.HostAS || !reflect.DeepEqual(c.Sessions, w.Sessions) {
				t.Fatalf("seed %d: collector %s: identity or sessions differ from the oracle", seed, w.Name)
			}
			if c.RIB.NumPrefixes() != w.RIB.NumPrefixes() {
				t.Fatalf("seed %d: %s: %d RIB prefixes, oracle has %d", seed, w.Name, c.RIB.NumPrefixes(), w.RIB.NumPrefixes())
			}
			for _, p := range w.RIB.Prefixes() {
				if !reflect.DeepEqual(c.RIB.Routes(p), w.RIB.Routes(p)) {
					t.Fatalf("seed %d: %s: candidates for %v differ from the oracle\n got %v\nwant %v",
						seed, w.Name, p, c.RIB.Routes(p), w.RIB.Routes(p))
				}
			}
			if !reflect.DeepEqual(fibEntries(c.FIB), fibEntries(w.FIB)) {
				t.Fatalf("seed %d: %s: FIB walk differs from the oracle", seed, w.Name)
			}
			if !bytes.Equal(dumpBytes(t, c), dumpBytes(t, w)) {
				t.Fatalf("seed %d: %s: RIB dump differs from the oracle", seed, w.Name)
			}
		}
	}
}

// TestBuildCollectorsSameAtAnyGOMAXPROCS builds all 25 collectors at
// GOMAXPROCS 1, 2 and 8 on three internets and requires the same dump bytes,
// the same FIB — the trie node for node, so the same walk and the same
// insertion order — and the same path table, every offset and every chunk,
// whichever worker filled which run and built which collector. Each build's FIB must
// also hold, for every prefix, what the decision process picks from that
// build's own candidates. Under -race this is the test that shows no two
// workers write a slot they share.
func TestBuildCollectorsSameAtAnyGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	specs := append(RouteViewsSpecs(), RIPESpecs()...)
	for _, seed := range []int64{20140817, 7, 424242} {
		g, pt := testInternet(t, seed)
		var want []*Collector
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got, err := BuildCollectors(g, pt, specs, rand.New(rand.NewSource(seed+100)))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range got {
				for _, e := range fibEntries(c.FIB) {
					if best, _ := c.RIB.Best(e.Prefix); !reflect.DeepEqual(e.Route, best) {
						t.Fatalf("seed %d, GOMAXPROCS %d: %s forwards %v by %v, its candidates select %v", seed, procs, c.Name, e.Prefix, e.Route, best)
					}
				}
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got[0].RIB.shared, want[0].RIB.shared) {
				t.Fatalf("seed %d: path table at GOMAXPROCS %d differs from GOMAXPROCS 1", seed, procs)
			}
			for i, w := range want {
				c := got[i]
				if c.RIB.shared != got[0].RIB.shared {
					t.Fatalf("seed %d, GOMAXPROCS %d: %s reads a path table of its own", seed, procs, c.Name)
				}
				if !bytes.Equal(dumpBytes(t, c), dumpBytes(t, w)) {
					t.Fatalf("seed %d: %s: RIB dump at GOMAXPROCS %d differs from GOMAXPROCS 1", seed, w.Name, procs)
				}
				// The whole trie, node for node: the walk and the insertion order.
				if !reflect.DeepEqual(c.FIB, w.FIB) {
					t.Fatalf("seed %d: %s: FIB at GOMAXPROCS %d differs from GOMAXPROCS 1", seed, w.Name, procs)
				}
			}
		}
	}
}

// TestFillCollectorsAloneOrTogether draws all 25 collectors as
// BuildCollectors does, then fills them three ways — each alone, in two
// uneven groups, and all in one call — and requires every collector's RIB
// dump bytes and FIB (its index and its routes) to be BuildCollectors' own.
// A collector's tables do not depend on which others share its route pass:
// what lets the session sweep fill all its collectors in one call, where it
// built each one alone.
func TestFillCollectorsAloneOrTogether(t *testing.T) {
	specs := append(RouteViewsSpecs(), RIPESpecs()...)
	for _, seed := range []int64{20140817, 7, 424242} {
		g, pt := testInternet(t, seed)
		want, err := BuildCollectors(g, pt, specs, rand.New(rand.NewSource(seed+100)))
		if err != nil {
			t.Fatal(err)
		}
		for _, split := range []struct {
			name   string
			groups func(cols []*Collector) [][]*Collector
		}{
			{"alone", func(cols []*Collector) (gs [][]*Collector) {
				for i := range cols {
					gs = append(gs, cols[i:i+1])
				}
				return gs
			}},
			{"two groups", func(cols []*Collector) [][]*Collector { return [][]*Collector{cols[:7], cols[7:]} }},
			{"one call", func(cols []*Collector) [][]*Collector { return [][]*Collector{cols} }},
		} {
			rng := rand.New(rand.NewSource(seed + 100))
			cols := make([]*Collector, len(specs))
			for i, spec := range specs {
				if cols[i], err = NewCollector(g, spec, rng); err != nil {
					t.Fatal(err)
				}
			}
			for _, group := range split.groups(cols) {
				FillCollectors(g, pt, group)
			}
			for i, w := range want {
				c := cols[i]
				if !reflect.DeepEqual(c.Sessions, w.Sessions) {
					t.Fatalf("seed %d, %s: %s drew other sessions than BuildCollectors", seed, split.name, w.Name)
				}
				if !bytes.Equal(dumpBytes(t, c), dumpBytes(t, w)) {
					t.Fatalf("seed %d, %s: %s: RIB dump differs from BuildCollectors'", seed, split.name, w.Name)
				}
				// The store behind a FIB is its RIB, whose path table holds the
				// paths of the fill's peers: the index node for node and the
				// routes the walk builds are what must not differ.
				if !reflect.DeepEqual(c.FIB.idx, w.FIB.idx) || !reflect.DeepEqual(fibEntries(c.FIB), fibEntries(w.FIB)) {
					t.Fatalf("seed %d, %s: %s: FIB differs from BuildCollectors'", seed, split.name, w.Name)
				}
			}
		}
	}
}

func dumpBytes(t *testing.T, c *Collector) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteRIB(&b, c.Name, c.RIB); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestRIBAddOnBatchBuiltRIBLeavesNeighboursAlone adds a route for one
// prefix of a batch-built RIB and requires every other prefix's candidates
// to stay as they were — first for the /16 of one origin alone, whose /24
// shares its run of candidates, then for every prefix in turn, each with a
// route of its own. The batch build packs one run per origin into one slab
// and enters it for each prefix of the origin; a run left with spare
// capacity would let the append write over the next origin's first
// candidate, or show one prefix's route in its sibling's. The RIB's own FIB,
// which reads its entries through the RIB, must walk as before. The other
// collector of the build — which reads the same path table — must dump the
// same bytes and walk the same FIB as before.
func TestRIBAddOnBatchBuiltRIBLeavesNeighboursAlone(t *testing.T) {
	g, pt := testInternet(t, 4)
	cols, err := BuildCollectors(g, pt, RouteViewsSpecs()[:2], rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	rib, other := cols[0].RIB, cols[1]
	ownWalk, otherDump, otherFIB := fibEntries(cols[0].FIB), dumpBytes(t, other), fibEntries(other.FIB)
	before := map[netaddr.Prefix][]Route{}
	for _, p := range rib.Prefixes() {
		before[p] = rib.Routes(p)
	}
	added := map[netaddr.Prefix][]Route{}
	add := func(p netaddr.Prefix, hop int) {
		rt := Route{Prefix: p, NextHop: hop, ASPath: []int{hop}, Rel: asgraph.RelProvider}
		rib.Add(rt)
		added[p] = append(added[p], rt)
	}
	check := func(step string) {
		t.Helper()
		for p, want := range before {
			if got := rib.Routes(p); !reflect.DeepEqual(got, append(slices.Clone(want), added[p]...)) {
				t.Fatalf("after %s: candidates of %v are\n %v\nwant %v + %v", step, p, got, want, added[p])
			}
		}
	}
	p16, p24 := pt.All()[6].Prefix, pt.All()[7].Prefix // AS 3's, not the last origin
	if p16.Bits() != 16 || p24.Bits() != 24 || !p16.Contains(p24.Addr()) {
		t.Fatalf("plan entries 6 and 7 are %v and %v, want one origin's /16 and /24", p16, p24)
	}
	add(p16, -6)
	check("an Add on the /16 of " + p16.String())
	for i, p := range rib.Prefixes() {
		add(p, -7-i)
	}
	check("an Add on every prefix")
	if !reflect.DeepEqual(fibEntries(cols[0].FIB), ownWalk) {
		t.Fatalf("%s: FIB walk changed under writes to its RIB", cols[0].Name)
	}
	if !bytes.Equal(dumpBytes(t, other), otherDump) {
		t.Fatalf("%s: dump changed under writes to %s's RIB", other.Name, cols[0].Name)
	}
	if !reflect.DeepEqual(fibEntries(other.FIB), otherFIB) {
		t.Fatalf("%s: FIB walk changed under writes to %s's RIB", other.Name, cols[0].Name)
	}
	// The other collector can take writes of its own without seeing these.
	for _, p := range other.RIB.Prefixes()[:3] {
		n := len(other.RIB.Routes(p))
		other.RIB.Add(Route{Prefix: p, NextHop: -8, ASPath: []int{-8}, Rel: asgraph.RelProvider})
		if got := other.RIB.Routes(p); len(got) != n+1 || !reflect.DeepEqual(got[n].ASPath, []int{-8}) {
			t.Fatalf("%s: Add after the neighbour's writes stored %v", other.Name, got)
		}
	}
}
