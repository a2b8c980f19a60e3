package bgp

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"locind/internal/asgraph"
	"locind/internal/netaddr"
)

// buildCollectorsByRoute is the build BuildCollectors replaced, kept as its
// oracle: origin → collector → session → prefix, a fresh RoutesTo and a fresh
// path per (origin, session), each collector's rows handed to the public
// NewRIB and the FIB derived afterwards. An origin's /16 and /24 rows
// alternate, so NewRIB groups interleaved rows. It draws from rng exactly as
// BuildCollectors does. The one test below holds the batch store (session
// attribute table, shared path table, fused best selection) and NewRIB
// (attribute map, one path chunk, DeriveFIB) to the same answer.
func buildCollectorsByRoute(g *asgraph.Graph, pt *PrefixTable, specs []Spec, rng *rand.Rand) ([]*Collector, [][]Route, error) {
	cols := make([]*Collector, 0, len(specs))
	for _, spec := range specs {
		c, err := NewCollector(g, spec, rng)
		if err != nil {
			return nil, nil, err
		}
		cols = append(cols, c)
	}
	byOrigin := map[int][]PrefixOrigin{}
	for _, po := range pt.All() {
		byOrigin[po.Origin] = append(byOrigin[po.Origin], po)
	}
	rows := make([][]Route, len(cols))
	for origin := 0; origin < g.N(); origin++ {
		pos := byOrigin[origin]
		if len(pos) == 0 {
			continue
		}
		rt := g.RoutesTo(origin)
		for ci, c := range cols {
			for _, s := range c.Sessions {
				path := rt.Path(s.PeerAS)
				if path == nil {
					continue
				}
				for _, po := range pos {
					rows[ci] = append(rows[ci], Route{
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
	for ci, c := range cols {
		c.RIB = NewRIB(rows[ci])
		c.FIB = c.RIB.DeriveFIB()
	}
	return cols, rows, nil
}

// candsOf returns p's candidates, nil if it has none: a walk of the index up
// to p, which only tests need.
func (r *RIB) candsOf(p netaddr.Prefix) []cand {
	r.ready()
	var cs []cand
	r.idx.Walk(func(q netaddr.Prefix, slot int32) bool {
		if q == p {
			s := r.spans[slot]
			cs = r.cands[s.lo:s.hi]
		}
		return q.Compare(p) < 0
	})
	return cs
}

// Routes returns the candidate routes for prefix p in the order they were
// given (nil if none). The slice is materialised for the caller and is its
// own; each ASPath is a view of the RIB's path store and must not be modified.
// Routes, Prefixes, Best and candidates live here because only the
// comparisons in this package's tests read a RIB prefix by prefix:
// production goes through WriteRIB and the FIB.
func (r *RIB) Routes(p netaddr.Prefix) []Route {
	var rs []Route
	for _, c := range r.candsOf(p) {
		rs = append(rs, r.route(p, c))
	}
	return rs
}

// candidates returns every candidate route of r: prefix by prefix in Compare
// order, each prefix's in their stored order.
func (r *RIB) candidates() []Route {
	var rs []Route
	r.walk(func(p netaddr.Prefix, cs []cand) {
		for _, c := range cs {
			rs = append(rs, r.route(p, c))
		}
	})
	return rs
}

// Prefixes returns every prefix with a route, in Compare order: the
// index's walk order.
func (r *RIB) Prefixes() []netaddr.Prefix {
	ps := make([]netaddr.Prefix, 0, r.NumPrefixes())
	r.walk(func(p netaddr.Prefix, _ []cand) { ps = append(ps, p) })
	return ps
}

// Best runs the decision process over the candidates for p.
func (r *RIB) Best(p netaddr.Prefix) (Route, bool) {
	cs := r.candsOf(p)
	if len(cs) == 0 {
		return Route{}, false
	}
	return r.route(p, r.best(p, cs)), true
}

// exactSlab reports whether r's candidate slab holds exactly rows
// candidates, with no spare capacity.
func exactSlab(r *RIB, rows int) bool { return len(r.cands) == rows && cap(r.cands) == rows }

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
// byte-identical RIB dump. Each oracle RIB's slab must be exactly its
// interleaved rows.
func TestBuildCollectorsMatchesByRouteOracle(t *testing.T) {
	specs := append(RouteViewsSpecs(), RIPESpecs()...)
	for _, seed := range []int64{20140817, 7, 424242} {
		g, pt := testInternet(t, seed)
		got, err := BuildCollectors(g, pt, specs, rand.New(rand.NewSource(seed+100)))
		if err != nil {
			t.Fatal(err)
		}
		want, rows, err := buildCollectorsByRoute(g, pt, specs, rand.New(rand.NewSource(seed+100)))
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			c := got[i]
			if c.Name != w.Name || c.HostAS != w.HostAS || !reflect.DeepEqual(c.Sessions, w.Sessions) {
				t.Fatalf("seed %d: collector %s: identity or sessions differ from the oracle", seed, w.Name)
			}
			if !exactSlab(w.RIB, len(rows[i])) {
				t.Fatalf("seed %d: %s: %d rows in a slab of length %d, capacity %d", seed, w.Name, len(rows[i]), len(w.RIB.cands), cap(w.RIB.cands))
			}
			if c.RIB.NumPrefixes() != w.RIB.NumPrefixes() {
				t.Fatalf("seed %d: %s: %d RIB prefixes, oracle has %d", seed, w.Name, c.RIB.NumPrefixes(), w.RIB.NumPrefixes())
			}
			if gc, wc := c.RIB.candidates(), w.RIB.candidates(); !reflect.DeepEqual(gc, wc) {
				for j := range wc {
					if j >= len(gc) || !reflect.DeepEqual(gc[j], wc[j]) {
						t.Fatalf("seed %d: %s: candidate %d of %d differs from the oracle's %v", seed, w.Name, j, len(wc), wc[j])
					}
				}
				t.Fatalf("seed %d: %s: %d candidates, the oracle has %d", seed, w.Name, len(gc), len(wc))
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
				if !reflect.DeepEqual(fibEntries(c.FIB), fibEntries(c.RIB.DeriveFIB())) {
					t.Fatalf("seed %d, GOMAXPROCS %d: %s forwards otherwise than its candidates select", seed, procs, c.Name)
				}
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got[0].RIB.paths, want[0].RIB.paths) {
				t.Fatalf("seed %d: path table at GOMAXPROCS %d differs from GOMAXPROCS 1", seed, procs)
			}
			for i, w := range want {
				c := got[i]
				if c.RIB.paths != got[0].RIB.paths {
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

// TestBatchRIBWritesItsSlabOnFirstRead builds all 25 collectors and requires
// that no RIB holds a candidate slab or spans before something reads it.
// Then one fresh collector's first read is a walk, which must see the
// oracle's candidates; and eight goroutines at once dump and count another
// fresh collector, half counting first: every dump must be the oracle's
// bytes and every count its routes. Under -race this is the test that shows
// the slab is written once, before any reader sees it.
func TestBatchRIBWritesItsSlabOnFirstRead(t *testing.T) {
	specs := append(RouteViewsSpecs(), RIPESpecs()...)
	const seed = 20140817
	g, pt := testInternet(t, seed)
	got, err := BuildCollectors(g, pt, specs, rand.New(rand.NewSource(seed+100)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range got {
		if c.RIB.cands != nil || c.RIB.spans != nil {
			t.Fatalf("%s: the RIB holds %d candidates and %d spans before any read", c.Name, len(c.RIB.cands), len(c.RIB.spans))
		}
	}
	want, _, err := buildCollectorsByRoute(g, pt, specs, rand.New(rand.NewSource(seed+100)))
	if err != nil {
		t.Fatal(err)
	}
	if gc, wc := got[1].RIB.candidates(), want[1].RIB.candidates(); !reflect.DeepEqual(gc, wc) {
		t.Fatalf("%s: a first read by walk sees %d candidates, the oracle has %d", want[1].Name, len(gc), len(wc))
	}
	c, wantDump, wantRoutes := got[0], dumpBytes(t, want[0]), want[0].RIB.NumRoutes()
	dumps := make([]bytes.Buffer, 8)
	routes, errs := make([]int, len(dumps)), make([]error, len(dumps))
	var wg sync.WaitGroup
	for i := range dumps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				routes[i] = c.RIB.NumRoutes()
			}
			errs[i] = WriteRIB(&dumps[i], c.Name, c.RIB)
			if i%2 == 1 {
				routes[i] = c.RIB.NumRoutes()
			}
		}()
	}
	wg.Wait()
	for i := range dumps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(dumps[i].Bytes(), wantDump) {
			t.Fatalf("%s: reader %d dumped other bytes than the oracle", c.Name, i)
		}
		if routes[i] != wantRoutes {
			t.Fatalf("%s: reader %d counted %d routes, the oracle has %d", c.Name, i, routes[i], wantRoutes)
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
