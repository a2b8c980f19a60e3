package core_test

import (
	"fmt"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/core"
	"locind/internal/mobility"
	"locind/internal/netaddr"
)

// The §3.1 displacement test on the Figure 2 router: one group holding a
// move across the /24 and /16, one holding a move within the /24.
func ExampleMoveTable_Stats() {
	fib := bgp.NewRIB([]bgp.Route{
		{Prefix: netaddr.MustParsePrefix("22.33.44.0/24"), NextHop: 5, ASPath: []int{5, 9}},
		{Prefix: netaddr.MustParsePrefix("22.33.0.0/16"), NextHop: 3, ASPath: []int{3, 9}},
	}).DeriveFIB()
	move := func(from, to string) []mobility.MoveEvent {
		return []mobility.MoveEvent{{
			From: netaddr.MustParseAddr(from),
			To:   netaddr.MustParseAddr(to),
		}}
	}

	for _, s := range core.NewMoveTable(
		move("22.33.44.55", "22.33.88.55"),
		move("22.33.44.55", "22.33.44.99"),
	).Stats(fib) {
		fmt.Printf("%d of %d displaced\n", s.Updates, s.Events)
	}
	// Output:
	// 1 of 1 displaced
	// 0 of 1 displaced
}

// The §3.3.1 update-cost definitions: losing a far replica updates
// controlled flooding but not best-port.
func ExampleContentUpdated() {
	fib := bgp.NewRIB([]bgp.Route{
		{Prefix: netaddr.MustParsePrefix("10.0.0.0/16"), NextHop: 1, ASPath: []int{1, 9}},
		{Prefix: netaddr.MustParsePrefix("20.0.0.0/16"), NextHop: 2, ASPath: []int{2, 8, 9}},
	}).DeriveFIB()

	near := netaddr.MustParseAddr("10.0.0.1")
	far := netaddr.MustParseAddr("20.0.0.1")
	// One timeline holding the one event {near, far} -> {near}.
	s := core.ContentUpdateStatsAllFused(fib, []cdn.Timeline{{
		Initial: []netaddr.Addr{near, far},
		Events:  []cdn.Event{{Removed: []netaddr.Addr{far}}},
	}})

	fmt.Println(s.Flooding.Updates == 1)
	fmt.Println(s.BestPort.Updates == 1)
	// Output:
	// true
	// false
}
