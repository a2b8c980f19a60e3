package core_test

import (
	"fmt"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/core"
	"locind/internal/netaddr"
)

// The §3.1 displacement test on the Figure 2 router.
func ExampleDisplaced() {
	fib := bgp.NewRIB([]bgp.Route{
		{Prefix: netaddr.MustParsePrefix("22.33.44.0/24"), NextHop: 5, ASPath: []int{5, 9}},
		{Prefix: netaddr.MustParsePrefix("22.33.0.0/16"), NextHop: 3, ASPath: []int{3, 9}},
	}).DeriveFIB()

	fmt.Println(core.Displaced(fib,
		netaddr.MustParseAddr("22.33.44.55"), netaddr.MustParseAddr("22.33.88.55")))
	fmt.Println(core.Displaced(fib,
		netaddr.MustParseAddr("22.33.44.55"), netaddr.MustParseAddr("22.33.44.99")))
	// Output:
	// true
	// false
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
