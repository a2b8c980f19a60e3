package bgp

import (
	"testing"

	"locind/internal/lint/allocguard"
	"locind/internal/netaddr"
)

func TestAllocGuard(t *testing.T) { allocguard.Check(t, allocGuardHarness()) }

// allocGuardHarness maps each //lint:zeroalloc symbol in this package to
// its measurement, consumed by TestAllocGuard. FIBSet.RoutesFor answers for
// every collector at each address the content kernel resolves; over two
// FIBs on one shared index and one on its own, for routed and unrouted
// addresses, it must allocate nothing.
func allocGuardHarness() map[string]func(t *testing.T) float64 {
	return map[string]func(t *testing.T) float64{
		"FIBSet.RoutesFor": func(t *testing.T) float64 {
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
			fibs := []*FIB{
				{idx: idx, routes: column(10), shared: true},
				ownFIB(column(20)[1:]),
				{idx: idx, routes: column(30), shared: true},
			}
			set := NewFIBSet(fibs)
			out, ok := make([]Route, len(fibs)), make([]bool, len(fibs))
			addrs := []netaddr.Addr{
				netaddr.MustParseAddr("22.33.44.55"),
				netaddr.MustParseAddr("22.33.88.55"),
				netaddr.MustParseAddr("10.1.2.3"),
				netaddr.MustParseAddr("200.1.1.1"),
			}
			return testing.AllocsPerRun(100, func() {
				for _, a := range addrs {
					set.RoutesFor(a, out, ok)
				}
			})
		},
	}
}
