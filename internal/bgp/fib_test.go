package bgp

import (
	"math/rand"
	"reflect"
	"slices"
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
	if full.FIB.idx != full.RIB.idx || full.FIB.Len() != pt.NumPrefixes() {
		t.Fatalf("full collector: %d of %d prefixes, reading the plan's index: %v", full.FIB.Len(), pt.NumPrefixes(), full.FIB.idx == full.RIB.idx)
	}
	if partial.FIB.idx == full.FIB.idx {
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

// columnFIB returns the FIB of rows, read through NewRIB(rows) as a
// batch-built FIB reads its collector's RIB. When the rows' prefixes are
// exactly plan's, it is a column on idx, plan's index, slot i selecting
// plan[i]'s best candidate; otherwise it owns its index, as fill decides
// for a collector that misses an origin, and is DeriveFIB's.
func columnFIB(idx *netaddr.Trie[int32], plan []netaddr.Prefix, rows []Route) *FIB {
	rib := NewRIB(rows)
	sel := map[netaddr.Prefix]cand{}
	rib.walk(func(p netaddr.Prefix, cs []cand) { sel[p] = rib.best(p, cs) })
	if len(sel) != len(plan) {
		return rib.DeriveFIB()
	}
	entries := make([]entry, len(plan))
	for i, p := range plan {
		c, ok := sel[p]
		if !ok {
			return rib.DeriveFIB()
		}
		entries[i] = entry{p, c}
	}
	return &FIB{idx: idx, entries: entries, rib: rib}
}

// FuzzFIBSet builds one to three FIBs over a random prefix list, each from
// rows of its own through NewRIB, and requires the set over them to answer
// each FIB's next hop and path length as its RouteFor does, and each FIB to
// answer with the best of its rows for the longest of its prefixes holding
// the address (and to walk those prefixes in order). The model finds that
// prefix by an exact probe at each length the FIB's prefixes have, longest
// first: at most 33 probes an address, however many rows the input adds.
// Every FIB but a last one of several starts with one row per prefix of the
// list, that one with a subset; then a script of ops adds rows. A FIB whose
// rows cover exactly the list reads the list's shared index, any other owns
// its index.
//
// Encoding: byte 0 gives the FIB count (1 + b%3) and the prefix count
// (1 + (b>>2)%16); byte 1 is the last FIB's subset mask, prefix i kept
// when bit i%8 is set; then five bytes per prefix (four octets, a length
// mod 33); then six bytes per op (a selector, four octets, a length): one
// more row for FIB selector%count, whose model for the prefix is Better
// over its rows in order. The committed corpus (testdata/fuzz/FuzzFIBSet),
// written when an op below 128 replaced a FIB's route and one from 128 up
// added a candidate, has a prefix listed twice, a default route, a row onto
// a sibling's prefix, a row for a prefix the shared index lacks and rows
// onto prefixes the FIBs hold.
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
		// rows[k] is FIB k's input, models[k] what it must hold.
		rows, models := make([][]Route, nFIB), make([]map[netaddr.Prefix]Route, nFIB)
		add := func(k int, rt Route) {
			rows[k] = append(rows[k], rt)
			if best, ok := models[k][rt.Prefix]; !ok || Better(rt, best) {
				models[k][rt.Prefix] = rt
			}
		}
		for k := range rows {
			models[k] = map[netaddr.Prefix]Route{}
			for i, p := range plan {
				if k == nFIB-1 && nFIB > 1 && mask&(1<<(i%8)) == 0 {
					continue
				}
				add(k, mkRoute(p, 1000*k+i))
			}
		}
		addrPlan := slices.Clone(plan)
		for op := 0; len(data) >= 6; data, op = data[6:], op+1 {
			p := netaddr.MakePrefix(netaddr.MakeAddr(data[1], data[2], data[3], data[4]), int(data[5])%33)
			add(int(data[0])%nFIB, mkRoute(p, 100000+op))
			addrPlan = append(addrPlan, p)
		}
		idx := indexOf(len(plan), func(i int) netaddr.Prefix { return plan[i] })
		fibs := make([]*FIB, nFIB)
		for k := range fibs {
			fibs[k] = columnFIB(idx, plan, rows[k])
		}
		addrs := []netaddr.Addr{0, netaddr.MustParseAddr("255.255.255.255")}
		for _, p := range addrPlan {
			last := p.Nth(p.NumAddrs() - 1)
			addrs = append(addrs, p.Addr(), last, p.Addr()^1, last+1)
		}
		checkSet(t, NewFIBSet(fibs), fibs, addrs)
		for k, fib := range fibs {
			// FIB k's prefixes in order, drawn from rows[k] rather than
			// from a map, whose order would change the sort's calls, and
			// so the coverage the fuzzer keeps, from run to run; and 32
			// less each of their lengths, so the longest sorts first.
			ps, short := make([]netaddr.Prefix, len(rows[k])), make([]int, len(rows[k]))
			for i, rt := range rows[k] {
				ps[i], short[i] = rt.Prefix, 32-rt.Prefix.Bits()
			}
			slices.SortFunc(ps, netaddr.Prefix.Compare)
			ps = slices.Compact(ps)
			slices.Sort(short)
			short = slices.Compact(short)
			for _, a := range addrs {
				var want Route
				found := false
				for _, l := range short {
					if want, found = models[k][netaddr.MakePrefix(a, 32-l)]; found {
						break
					}
				}
				got, ok := fib.RouteFor(a)
				if ok != found || !reflect.DeepEqual(got, want) {
					t.Fatalf("FIB %d at %v: RouteFor %v %v, model %v %v", k, a, got, ok, want, found)
				}
			}
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
// routes: on all 25 collectors of three internets, and on a derived FIB
// whose column names two attribute sets with one next hop at different MEDs
// and whose store keeps an attribute set that only a losing candidate names.
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
	if got := (&FIB{}).NextHopDegree(); got != 0 {
		t.Fatalf("empty FIB: NextHopDegree %d", got)
	}
	f := NewRIB([]Route{
		route("10.0.0.0/8", 5, 0, 0, asgraph.RelCustomer, 5, 9),
		route("11.0.0.0/8", 5, 0, 1, asgraph.RelCustomer, 5, 9),
		route("12.0.0.0/8", 4, 0, 0, asgraph.RelCustomer, 4),
		route("12.0.0.0/8", 3, 0, 0, asgraph.RelCustomer, 3),
	}).DeriveFIB()
	if got, want := f.NextHopDegree(), nextHopDegreeByRoute(f); got != want || want != 2 {
		t.Fatalf("derived FIB: NextHopDegree %d, the routes have %d next hops, want 2", got, want)
	}
}
