package bgp

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"locind/internal/asgraph"
	"locind/internal/netaddr"
)

// probeAddrs is the first, a middle and the last address of every prefix f
// holds, plus addresses no synthesized plan covers.
func probeAddrs(f *FIB) []netaddr.Addr {
	addrs := []netaddr.Addr{netaddr.MustParseAddr("250.1.2.3"), netaddr.MustParseAddr("255.255.255.255")}
	f.Walk(func(p netaddr.Prefix, _ Route) bool {
		addrs = append(addrs, p.Addr(), p.Nth(p.NumAddrs()/2), p.Nth(p.NumAddrs()-1))
		return true
	})
	return addrs
}

// answers is f's RouteFor at every address of addrs.
func answers(f *FIB, addrs []netaddr.Addr) []Route {
	out := make([]Route, len(addrs))
	for i, a := range addrs {
		out[i], _ = f.RouteFor(a)
	}
	return out
}

// TestInsertOnSharedIndexStaysPrivate writes to one FIB of a batch build —
// a replaced route for a prefix of the shared index, then a more-specific
// and a prefix outside the plan, both new to it — and requires that FIB to
// answer with its writes and every sibling to answer, walk and count as it
// did before. Replacing leaves the index shared; adding copies it first.
// The FIB reads its entries through its collector's RIB, and an Insert
// stores its route's attributes and path there too: the RIB must dump the
// same bytes after the Inserts as before.
func TestInsertOnSharedIndexStaysPrivate(t *testing.T) {
	g, pt := testInternet(t, 20140817)
	cols, err := BuildCollectors(g, pt, RouteViewsSpecs(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cols[1:] {
		if !c.FIB.shared || c.FIB.idx != cols[0].FIB.idx {
			t.Fatalf("%s does not read the fill's shared index", c.Name)
		}
	}
	f := cols[0].FIB
	addrs := probeAddrs(f)
	dump := dumpBytes(t, cols[0])
	type snapshot struct {
		walk []fibEntry
		ans  []Route
		n    int
	}
	before := make([]snapshot, len(cols))
	for i, c := range cols {
		before[i] = snapshot{fibEntries(c.FIB), answers(c.FIB, addrs), c.FIB.Len()}
	}
	siblingsUnchanged := func(step string) {
		t.Helper()
		for i, c := range cols[1:] {
			now := snapshot{fibEntries(c.FIB), answers(c.FIB, addrs), c.FIB.Len()}
			if !reflect.DeepEqual(now, before[i+1]) {
				t.Fatalf("after %s on %s, sibling %s answers differently", step, cols[0].Name, c.Name)
			}
		}
	}

	// Replace: the /16 of AS 7 gets another next hop, in f's column only.
	p16 := pt.All()[14].Prefix
	if p16.Bits() != 16 {
		t.Fatalf("plan entry 14 is %v, want AS 7's /16", p16)
	}
	replaced := Route{Prefix: p16, NextHop: 99999, ASPath: []int{99999, 7}}
	f.Insert(p16, replaced)
	if !f.shared || f.idx != cols[1].FIB.idx {
		t.Fatal("replacing a route copied the shared index")
	}
	if got, _ := f.RouteFor(p16.Nth(4000)); !reflect.DeepEqual(got, replaced) {
		t.Fatalf("after replace, RouteFor = %v, want %v", got, replaced)
	}
	if f.Len() != before[0].n {
		t.Fatalf("replace changed Len from %d to %d", before[0].n, f.Len())
	}
	siblingsUnchanged("replace")

	// Add: a /17 under that /16 and a /8 outside the plan.
	p17 := netaddr.MakePrefix(p16.Nth(1<<15), 17)
	p8 := netaddr.MustParsePrefix("250.0.0.0/8")
	f.Insert(p17, Route{Prefix: p17, NextHop: 88888, ASPath: []int{88888, 7}})
	if f.shared || f.idx == cols[1].FIB.idx {
		t.Fatal("adding a prefix did not copy the shared index")
	}
	f.Insert(p8, Route{Prefix: p8, NextHop: 77777, ASPath: []int{77777}})
	siblingsUnchanged("insert")
	for a, want := range map[netaddr.Addr]int{
		p16.Nth(4000):                      99999,
		p17.Nth(3):                         88888,
		netaddr.MustParseAddr("250.1.2.3"): 77777,
	} {
		if got, ok := f.Port(a); !ok || got != want {
			t.Errorf("%v: port %d, %v; want %d", a, got, ok, want)
		}
	}
	if f.Len() != before[0].n+2 {
		t.Errorf("Len %d after two new prefixes, want %d", f.Len(), before[0].n+2)
	}
	if !bytes.Equal(dumpBytes(t, cols[0]), dump) {
		t.Fatalf("Inserts into %s's FIB changed its RIB dump", cols[0].Name)
	}
	walk := fibEntries(f)
	if len(walk) != f.Len() {
		t.Fatalf("Walk visits %d entries, Len is %d", len(walk), f.Len())
	}
	for i := 1; i < len(walk); i++ {
		if walk[i-1].Prefix.Compare(walk[i].Prefix) >= 0 {
			t.Fatalf("Walk out of prefix order at %v, %v", walk[i-1].Prefix, walk[i].Prefix)
		}
	}
}

// TestInsertReplacementsReuseTheirSlot replaces one prefix's route 10 000
// times, on a zero FIB and on a batch-built collector FIB, cycling through
// three next hops and fresh paths. The store behind each FIB may gain one
// own path slot for the first replacement and none after it; the
// collector's RIB dumps the same bytes throughout, and RouteFor answers
// the last route inserted.
func TestInsertReplacementsReuseTheirSlot(t *testing.T) {
	g, pt := testInternet(t, 20140817)
	cols, err := BuildCollectors(g, pt, RouteViewsSpecs(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	p := pt.All()[14].Prefix
	var zero FIB
	zero.Insert(p, Route{Prefix: p, NextHop: 1, ASPath: []int{1, 7}})
	for _, tc := range []struct {
		name string
		f    *FIB
		dump func() []byte
	}{
		{"zero FIB", &zero, func() []byte { return nil }},
		{cols[0].Name + "'s FIB", cols[0].FIB, func() []byte { return dumpBytes(t, cols[0]) }},
	} {
		f, dump := tc.f, tc.dump()
		own, attrs := len(f.rib.own), len(f.rib.attrs)
		var last Route
		for i := 0; i < 10000; i++ {
			last = Route{Prefix: p, NextHop: 90000 + i%3, ASPath: []int{90000 + i%3, i, 7}}
			f.Insert(p, last)
		}
		if grew := len(f.rib.own) - own; grew > 1 {
			t.Errorf("%s: 10000 replacements added %d own path slots, want at most 1", tc.name, grew)
		}
		if grew := len(f.rib.attrs) - attrs; grew > 3 {
			t.Errorf("%s: 10000 replacements over 3 next hops added %d attribute sets", tc.name, grew)
		}
		if got, ok := f.RouteFor(p.Nth(4000)); !ok || !reflect.DeepEqual(got, last) {
			t.Errorf("%s: RouteFor = %v, %v; want the last insert %v", tc.name, got, ok, last)
		}
		if !bytes.Equal(tc.dump(), dump) {
			t.Errorf("%s: replacements changed the RIB dump", tc.name)
		}
	}
}

// TestCollectorMissingAnOriginOwnsItsIndex fills two collectors over three
// ASes in a peering chain 0 — 1 — 2. A peer route is not re-exported to a
// peer, so AS 0 has no route to AS 2: the collector fed by AS 1 routes the
// whole plan and reads the fill's index, the one fed by AS 0 does not and
// indexes its own prefixes, answering as DeriveFIB over its RIB does.
func TestCollectorMissingAnOriginOwnsItsIndex(t *testing.T) {
	g := asgraph.NewGraph(3)
	for a := 0; a < 3; a++ {
		g.SetAS(a, 2, asgraph.NorthAmerica)
	}
	if err := g.AddPeer(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPeer(1, 2); err != nil {
		t.Fatal(err)
	}
	pt, err := NewPrefixTable(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := &Collector{Name: "full", Sessions: []Session{{PeerAS: 1, Rel: asgraph.RelPeer}}}
	partial := &Collector{Name: "partial", Sessions: []Session{{PeerAS: 0, Rel: asgraph.RelPeer}}}
	FillCollectors(g, pt, []*Collector{full, partial})
	if !full.FIB.shared || full.FIB.Len() != pt.NumPrefixes() {
		t.Fatalf("full collector: shared %v, %d of %d prefixes", full.FIB.shared, full.FIB.Len(), pt.NumPrefixes())
	}
	if partial.FIB.shared || partial.FIB.idx == full.FIB.idx {
		t.Fatal("the collector missing AS 2 reads the plan's index")
	}
	if partial.FIB.Len() != 4 || partial.FIB.idx.Len() != 4 {
		t.Fatalf("partial collector: %d routes over %d indexed prefixes, want 4 and 4", partial.FIB.Len(), partial.FIB.idx.Len())
	}
	// Its RIB reads the plan's index, AS 2's two slots empty.
	if partial.RIB.idx != full.FIB.idx || partial.RIB.NumPrefixes() != 4 || partial.RIB.NumRoutes() != 4 {
		t.Fatalf("partial collector's RIB: %d prefixes, %d routes, want 4 and 4 over the plan's index",
			partial.RIB.NumPrefixes(), partial.RIB.NumRoutes())
	}
	derived := partial.RIB.DeriveFIB()
	addrs := probeAddrs(full.FIB)
	if !reflect.DeepEqual(answers(partial.FIB, addrs), answers(derived, addrs)) ||
		!reflect.DeepEqual(fibEntries(partial.FIB), fibEntries(derived)) {
		t.Fatal("the partial collector's FIB is not DeriveFIB's")
	}
	if _, ok := partial.FIB.RouteFor(pt.AddrIn(2, 5)); ok {
		t.Fatal("the partial collector routes AS 2")
	}
	set := NewFIBSet([]*FIB{partial.FIB, full.FIB, derived})
	if len(set.groups) != 3 {
		t.Fatalf("%d index groups, want 3", len(set.groups))
	}
	checkSet(t, set, []*FIB{partial.FIB, full.FIB, derived}, addrs)
}

// checkSet requires set.RoutesFor to answer every address of addrs at
// fibs[k] with the next hop and path length of what fibs[k].RouteFor
// returns, into buffers holding stale answers.
func checkSet(t *testing.T, set *FIBSet, fibs []*FIB, addrs []netaddr.Addr) {
	t.Helper()
	hop, pathLen, ok := make([]int, len(fibs)), make([]int, len(fibs)), make([]bool, len(fibs))
	for _, a := range addrs {
		set.RoutesFor(a, hop, pathLen, ok)
		for k, f := range fibs {
			want, wok := f.RouteFor(a)
			if ok[k] != wok || hop[k] != want.NextHop || pathLen[k] != want.PathLen() {
				t.Fatalf("%v at FIB %d of %d: set says hop %d length %d %v, RouteFor %v %v", a, k, len(fibs), hop[k], pathLen[k], ok[k], want, wok)
			}
		}
	}
}

// columnFIB returns the FIB that answers routes[i] at slot i of idx — or, for
// a nil idx, on an index of its own — read through rib as a batch-built FIB
// reads its collector's RIB: each route is added to rib as a candidate, and
// the column names it.
func columnFIB(rib *RIB, idx *netaddr.Trie[int32], routes []Route) *FIB {
	entries := make([]entry, len(routes))
	for i, rt := range routes {
		rib.Add(rt)
		cs := rib.candsOf(rt.Prefix)
		entries[i] = entry{rt.Prefix, cs[len(cs)-1]}
	}
	if idx == nil {
		return ownFIB(rib, entries)
	}
	return &FIB{idx: idx, entries: entries, rib: rib, shared: true}
}

// FuzzFIBSet builds one to three FIBs over a random prefix list, each read
// through a RIB of its own as a batch-built FIB reads its collector's — all
// but a last one of several on one shared index, that one on its own index
// over a subset — applies a random script of Inserts into the FIBs and Adds
// into the RIBs behind them, and requires the set over them to answer each
// FIB's next hop and path length as its RouteFor does, and each FIB to answer
// as a linear scan of the prefixes inserted into it (and to walk them in
// order): an Add to its RIB changes no answer of the FIB.
//
// Encoding: byte 0 gives the FIB count (1 + b%3) and the prefix count
// (1 + (b>>2)%16); byte 1 is the private FIB's subset mask, prefix i kept
// when bit i%8 is set; then five bytes per prefix (four octets, a length
// mod 33); then six bytes per op (a selector, four octets, a length): an
// Insert into FIB selector%count below 128, an Add into its RIB from 128
// up. The committed corpus (testdata/fuzz/FuzzFIBSet) has a prefix listed
// twice, a default route, an Insert onto a sibling's prefix, an Insert of a
// prefix the shared index lacks and an Add onto a prefix the FIBs hold.
func FuzzFIBSet(f *testing.F) {
	f.Add([]byte{
		0x04, 0x01,
		22, 0, 0, 0, 8, 22, 33, 0, 0, 16,
		0, 1, 0, 2, 0, 22, 33, 44, 55, 32,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nFIB, nPrefix, mask := 1+int(data[0])%3, 1+int(data[0]>>2)%16, data[1]
		data = data[2:]
		var plan []netaddr.Prefix
		seen := map[netaddr.Prefix]bool{}
		for ; len(plan) < nPrefix && len(data) >= 5; data = data[5:] {
			p := netaddr.MakePrefix(netaddr.MakeAddr(data[0], data[1], data[2], data[3]), int(data[4])%33)
			if !seen[p] {
				seen[p] = true
				plan = append(plan, p)
			}
		}
		mkRoute := func(p netaddr.Prefix, hop int) Route {
			return Route{Prefix: p, NextHop: hop, MED: hop % 3, ASPath: make([]int, 1+hop%5)}
		}
		// models[k] is what FIB k must hold.
		models := make([]map[netaddr.Prefix]Route, nFIB)
		fibs, ribs := make([]*FIB, nFIB), make([]*RIB, nFIB)
		idx := indexOf(len(plan), func(i int) netaddr.Prefix { return plan[i] })
		for k := range fibs {
			models[k] = map[netaddr.Prefix]Route{}
			var routes []Route
			for i, p := range plan {
				if k == nFIB-1 && nFIB > 1 && mask&(1<<(i%8)) == 0 {
					continue
				}
				rt := mkRoute(p, 1000*k+i)
				routes = append(routes, rt)
				models[k][p] = rt
			}
			ribs[k] = NewRIB()
			if k < nFIB-1 || nFIB == 1 {
				fibs[k] = columnFIB(ribs[k], idx, routes)
			} else {
				fibs[k] = columnFIB(ribs[k], nil, routes)
			}
		}
		for op := 0; len(data) >= 6; data, op = data[6:], op+1 {
			k := int(data[0]) % nFIB
			p := netaddr.MakePrefix(netaddr.MakeAddr(data[1], data[2], data[3], data[4]), int(data[5])%33)
			rt := mkRoute(p, 100000+op)
			if data[0] < 128 {
				fibs[k].Insert(p, rt)
				models[k][p] = rt
			} else {
				ribs[k].Add(rt)
			}
			plan = append(plan, p)
		}
		addrs := []netaddr.Addr{0, netaddr.MustParseAddr("255.255.255.255")}
		for _, p := range plan {
			last := p.Nth(p.NumAddrs() - 1)
			addrs = append(addrs, p.Addr(), last, p.Addr()^1, last+1)
		}
		checkSet(t, NewFIBSet(fibs), fibs, addrs)
		for k, fib := range fibs {
			for _, a := range addrs {
				var want Route
				bits := -1
				for p, rt := range models[k] {
					if p.Contains(a) && p.Bits() > bits {
						want, bits = rt, p.Bits()
					}
				}
				got, ok := fib.RouteFor(a)
				if ok != (bits >= 0) || !reflect.DeepEqual(got, want) {
					t.Fatalf("FIB %d at %v: RouteFor %v %v, linear scan %v %v", k, a, got, ok, want, bits >= 0)
				}
			}
			var ps []netaddr.Prefix
			for p := range models[k] {
				ps = append(ps, p)
			}
			sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
			walk := fibEntries(fib)
			if len(walk) != len(ps) || fib.Len() != len(ps) {
				t.Fatalf("FIB %d: Walk visits %d, Len %d, model holds %d", k, len(walk), fib.Len(), len(ps))
			}
			for i, e := range walk {
				if e.Prefix != ps[i] || !reflect.DeepEqual(e.Route, models[k][ps[i]]) {
					t.Fatalf("FIB %d: Walk entry %d is %v %v, want %v", k, i, e.Prefix, e.Route, ps[i])
				}
			}
		}
	})
}

// nextHopDegreeByRoute is NextHopDegree as it was, one map entry per route's
// next hop, kept as its oracle.
func nextHopDegreeByRoute(f *FIB) int {
	seen := map[int]bool{}
	f.Walk(func(_ netaddr.Prefix, rt Route) bool {
		seen[rt.NextHop] = true
		return true
	})
	return len(seen)
}

// TestNextHopDegreeMatchesByRouteOracle holds NextHopDegree, which counts
// the next hops of the attribute sets a column names, to a count over its
// routes: on all 25 collectors of three internets, and on an Insert-built
// FIB whose column names two attribute sets with one next hop at different
// MEDs and whose store keeps an attribute set that a replaced entry named.
func TestNextHopDegreeMatchesByRouteOracle(t *testing.T) {
	specs := append(RouteViewsSpecs(), RIPESpecs()...)
	for _, seed := range []int64{20140817, 7, 424242} {
		g, pt := testInternet(t, seed)
		cols, err := BuildCollectors(g, pt, specs, rand.New(rand.NewSource(seed+100)))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cols {
			if got, want := c.FIB.NextHopDegree(), nextHopDegreeByRoute(c.FIB); got != want {
				t.Fatalf("seed %d: %s: NextHopDegree %d, the routes have %d next hops", seed, c.Name, got, want)
			}
		}
	}
	f := &FIB{}
	if got := f.NextHopDegree(); got != 0 {
		t.Fatalf("empty FIB: NextHopDegree %d", got)
	}
	f.Insert(netaddr.MustParsePrefix("10.0.0.0/8"), Route{NextHop: 5, MED: 0, ASPath: []int{5, 9}})
	f.Insert(netaddr.MustParsePrefix("11.0.0.0/8"), Route{NextHop: 5, MED: 1, ASPath: []int{5, 9}})
	f.Insert(netaddr.MustParsePrefix("12.0.0.0/8"), Route{NextHop: 4, ASPath: []int{4}})
	f.Insert(netaddr.MustParsePrefix("12.0.0.0/8"), Route{NextHop: 3, ASPath: []int{3}})
	if got, want := f.NextHopDegree(), nextHopDegreeByRoute(f); got != want || want != 2 {
		t.Fatalf("Insert-built FIB: NextHopDegree %d, the routes have %d next hops, want 2", got, want)
	}
}
