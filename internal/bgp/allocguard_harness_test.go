package bgp

import (
	"testing"

	"locind/internal/asgraph"
	"locind/internal/lint/allocguard"
	"locind/internal/netaddr"
)

func TestAllocGuard(t *testing.T) { allocguard.Check(t, allocGuardHarness()) }

// harnessFIBs returns FIBs of every kind the evaluation reads — two columns
// on one shared index and one on its own, each read through the RIB of its
// rows, and a collector's FIB read through the path table of its fill —
// and addresses that each of them routes or does not.
func harnessFIBs(t *testing.T) ([]*FIB, []netaddr.Addr) {
	plan := []netaddr.Prefix{
		netaddr.MustParsePrefix("22.33.0.0/16"),
		netaddr.MustParsePrefix("22.33.44.0/24"),
		netaddr.MustParsePrefix("10.0.0.0/8"),
	}
	idx := indexOf(len(plan), func(i int) netaddr.Prefix { return plan[i] })
	column := func(hop int) []Route {
		rs := make([]Route, len(plan))
		for i, p := range plan {
			rs[i] = Route{Prefix: p, NextHop: hop + i, ASPath: []int{hop + i, 7}}
		}
		return rs
	}
	g := asgraph.NewGraph(2)
	g.SetAS(0, 2, asgraph.NorthAmerica)
	g.SetAS(1, 2, asgraph.NorthAmerica)
	if err := g.AddPeer(0, 1); err != nil {
		t.Fatal(err)
	}
	pt, err := NewPrefixTable(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	filled := &Collector{Sessions: []Session{{PeerAS: 1, Rel: asgraph.RelPeer}}}
	FillCollectors(g, pt, []*Collector{filled})
	fibs := []*FIB{
		columnFIB(idx, plan, column(10)),
		columnFIB(idx, plan, column(20)[1:]),
		columnFIB(idx, plan, column(30)),
		filled.FIB,
	}
	addrs := []netaddr.Addr{
		netaddr.MustParseAddr("22.33.44.55"),
		netaddr.MustParseAddr("22.33.88.55"),
		netaddr.MustParseAddr("10.1.2.3"),
		netaddr.MustParseAddr("200.1.1.1"),
		pt.AddrIn(0, 300),
		pt.AddrIn(1, 5),
	}
	return fibs, addrs
}

// allocGuardHarness maps each //lint:zeroalloc symbol in this package to
// its measurement, consumed by TestAllocGuard. FIBSet.RoutesFor answers for
// every collector at each address the content kernel resolves, FIB.Port and
// FIB.RouteFor for one FIB at each address a device driver or the per-FIB
// kernel resolves; over harnessFIBs, routed and unrouted, each must allocate
// nothing, building its answer from the store's tables.
func allocGuardHarness() map[string]func(t *testing.T) float64 {
	return map[string]func(t *testing.T) float64{
		"FIBSet.RoutesFor": func(t *testing.T) float64 {
			fibs, addrs := harnessFIBs(t)
			set := NewFIBSet(fibs)
			hop, pathLen, ok := make([]int, len(fibs)), make([]int, len(fibs)), make([]bool, len(fibs))
			return testing.AllocsPerRun(100, func() {
				for _, a := range addrs {
					set.RoutesFor(a, hop, pathLen, ok)
				}
			})
		},
		"FIB.Port": func(t *testing.T) float64 {
			fibs, addrs := harnessFIBs(t)
			return testing.AllocsPerRun(100, func() {
				for _, f := range fibs {
					for _, a := range addrs {
						f.Port(a)
					}
				}
			})
		},
		"FIB.RouteFor": func(t *testing.T) float64 {
			fibs, addrs := harnessFIBs(t)
			return testing.AllocsPerRun(100, func() {
				for _, f := range fibs {
					for _, a := range addrs {
						f.RouteFor(a)
					}
				}
			})
		},
	}
}
