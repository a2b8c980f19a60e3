package bgp_test

import (
	"math/rand"
	"slices"
	"testing"

	"locind/internal/bgp"
	"locind/internal/expt"
	"locind/internal/netaddr"
)

// worldAddrs is every address the evaluation asks a collector about in w —
// each address of every popular and unpopular timeline, both ends of every
// device move — plus random addresses across the plan and the whole space
// (most of those outside the plan), sorted and distinct.
func worldAddrs(w *expt.World, rng *rand.Rand) []netaddr.Addr {
	var addrs []netaddr.Addr
	for _, tl := range w.Timelines() {
		addrs = append(addrs, tl.Initial...)
		for _, e := range tl.Events {
			addrs = append(addrs, e.Removed...)
			addrs = append(addrs, e.Added...)
		}
	}
	for _, e := range w.Devices.MoveEvents() {
		addrs = append(addrs, e.From, e.To)
	}
	for i := 0; i < 2000; i++ {
		inPlan := netaddr.Addr(uint32(rng.Intn(w.Graph.N()))<<16 | uint32(rng.Intn(1<<16)))
		addrs = append(addrs, inPlan, netaddr.Addr(rng.Uint32()))
	}
	slices.Sort(addrs)
	return slices.Compact(addrs)
}

func sameRoute(a, b bgp.Route) bool {
	return a.Prefix == b.Prefix && a.NextHop == b.NextHop && a.LocalPref == b.LocalPref &&
		a.MED == b.MED && a.Rel == b.Rel && slices.Equal(a.ASPath, b.ASPath)
}

// TestFIBSetOnEveryCollector holds the FIB set to the per-FIB answers on all
// 25 RouteViews and RIPE collectors of three seeded quick worlds, at every
// address the evaluation asks about and at random ones: the set over all 25
// FIBs (one shared index, so one walk per address) must answer each with the
// next hop and path length of its RouteFor, which must return the route a
// FIB that DeriveFIB rebuilds from its RIB on an index of its own selects; a
// mixed set — two FIBs on the shared index, one rebuilt on an index of its
// own — must answer each member as its own RouteFor, in two walks.
func TestFIBSetOnEveryCollector(t *testing.T) {
	for _, seed := range []int64{20140817, 7, 424242} {
		cfg := expt.QuickConfig()
		cfg.Seed = seed
		w, err := expt.BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cols := slices.Concat(w.RouteViews, w.RIPE)
		fibs, derived := make([]*bgp.FIB, len(cols)), make([]*bgp.FIB, len(cols))
		for i, c := range cols {
			fibs[i], derived[i] = c.FIB, c.RIB.DeriveFIB()
		}
		set := bgp.NewFIBSet(fibs)
		if n := bgp.IndexWalks(set); n != 1 {
			t.Fatalf("seed %d: the %d collectors make %d index walks per address, want 1", seed, len(cols), n)
		}
		// DeriveFIB lays out its slots in prefix order, which is the plan's
		// order too: the private member is derived from a collector's
		// selected routes less the first, so that each slot of it is one off
		// the shared index's.
		var entries []bgp.Route
		derived[5].Walk(func(_ netaddr.Prefix, rt bgp.Route) bool {
			entries = append(entries, rt)
			return true
		})
		mixedFIBs := []*bgp.FIB{fibs[0], bgp.NewRIB(entries[1:]).DeriveFIB(), fibs[11]}
		mixed := bgp.NewFIBSet(mixedFIBs)
		if n := bgp.IndexWalks(mixed); n != 2 {
			t.Fatalf("seed %d: the mixed set makes %d index walks per address, want 2", seed, n)
		}
		addrs := worldAddrs(w, rand.New(rand.NewSource(seed)))
		hop, plen, ok := make([]int, len(fibs)), make([]int, len(fibs)), make([]bool, len(fibs))
		mhop, mplen, mok := make([]int, len(mixedFIBs)), make([]int, len(mixedFIBs)), make([]bool, len(mixedFIBs))
		for _, a := range addrs {
			set.RoutesFor(a, hop, plen, ok)
			for i, c := range cols {
				want, wok := c.FIB.RouteFor(a)
				if ok[i] != wok || hop[i] != want.NextHop || plen[i] != want.PathLen() {
					t.Fatalf("seed %d %s at %v: set hop %d length %d %v, RouteFor %v %v", seed, c.Name, a, hop[i], plen[i], ok[i], want, wok)
				}
				if d, dok := derived[i].RouteFor(a); dok != wok || !sameRoute(d, want) {
					t.Fatalf("seed %d %s at %v: RouteFor %v %v, DeriveFIB %v %v", seed, c.Name, a, want, wok, d, dok)
				}
			}
			mixed.RoutesFor(a, mhop, mplen, mok)
			for k, f := range mixedFIBs {
				if want, wok := f.RouteFor(a); mok[k] != wok || mhop[k] != want.NextHop || mplen[k] != want.PathLen() {
					t.Fatalf("seed %d mixed set member %d at %v: hop %d length %d %v, RouteFor %v %v", seed, k, a, mhop[k], mplen[k], mok[k], want, wok)
				}
			}
		}
		t.Logf("seed %d: %d addresses", seed, len(addrs))
	}
}
