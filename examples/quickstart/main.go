// Quickstart: the paper's core methodology on toy routers, in one page.
//
// Through the calls locind makes, it reproduces the two worked examples of
// the methodology section, the Figure 2 displacement (a device moving
// between prefixes a router forwards to different ports) with
// core.MoveTable and the Figure 3 name-table subsumption behind the
// aggregateability metric with core.AggregateabilityPerRouter, and between
// them the §3.3.1 content update costs of best-port and flooding.
package main

import (
	"fmt"
	"math"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/core"
	"locind/internal/mobility"
	"locind/internal/netaddr"
)

func main() {
	// Router R's FIB, exactly as in Figure 2: the /24 and the /16 forward
	// to different output ports (next-hop ASes 5 and 3). It is derived from
	// a RIB as ribtool derives one from a dump.
	fib := bgp.NewRIB([]bgp.Route{
		{Prefix: netaddr.MustParsePrefix("22.33.44.0/24"), NextHop: 5, ASPath: []int{5, 9}},
		{Prefix: netaddr.MustParsePrefix("22.33.0.0/16"), NextHop: 3, ASPath: []int{3, 7, 9}},
	}).DeriveFIB()

	// Two groups of one device move each: across the prefixes, and within
	// the /24. Stats counts, per group, the moves that displace at R.
	from := netaddr.MustParseAddr("22.33.44.55")
	to := netaddr.MustParseAddr("22.33.88.55")
	within := netaddr.MustParseAddr("22.33.44.99")
	move := func(a, b netaddr.Addr) []mobility.MoveEvent {
		return []mobility.MoveEvent{{From: a, To: b}}
	}
	moves := core.NewMoveTable(move(from, to), move(from, within)).Stats(fib)
	fmt.Printf("device mobility %v -> %v displaces at R: %v\n",
		from, to, moves[0].Updates == 1)
	fmt.Printf("device mobility %v -> %v displaces at R: %v (same longest prefix)\n\n",
		from, within, moves[1].Updates == 1)

	// Content mobility (§3.3.1): a name served from both prefixes loses its
	// far replica. The eligible port set changes (flooding updates) but the
	// closest copy stays put (best-port does not).
	// Replaying that one event counts, per strategy, whether R updated.
	before := []netaddr.Addr{from, to}
	after := []netaddr.Addr{from}
	s := core.ContentUpdateStatsPerRouter(bgp.NewFIBSet([]*bgp.FIB{fib}), []cdn.Timeline{{
		Initial: before,
		Events:  []cdn.Event{{Removed: []netaddr.Addr{to}}},
	}})[0]
	fmt.Printf("content %v -> %v:\n", before, after)
	fmt.Printf("  controlled flooding updates: %v\n", s.Flooding.Updates == 1)
	fmt.Printf("  best-port updates:           %v\n\n", s.BestPort.Updates == 1)

	// Figure 3: LPM subsumption in the name space, at a router S whose
	// ports are 2, 4 and 5. Each name is served from one address.
	s3 := bgp.NewRIB([]bgp.Route{
		{Prefix: netaddr.MustParsePrefix("10.0.0.0/8"), NextHop: 2, ASPath: []int{2, 9}},
		{Prefix: netaddr.MustParsePrefix("20.0.0.0/8"), NextHop: 4, ASPath: []int{4, 9}},
		{Prefix: netaddr.MustParsePrefix("30.0.0.0/8"), NextHop: 5, ASPath: []int{5, 9}},
	}).DeriveFIB()
	sets := map[cdn.Name][]netaddr.Addr{
		"yahoo.com":        {netaddr.MustParseAddr("10.0.0.1")}, // port 2
		"travel.yahoo.com": {netaddr.MustParseAddr("10.0.0.2")}, // port 2
		"sports.yahoo.com": {netaddr.MustParseAddr("30.0.0.1")}, // port 5
		"cnn.com":          {netaddr.MustParseAddr("10.0.1.1")}, // port 2
		"mit.edu":          {netaddr.MustParseAddr("20.0.0.1")}, // port 4
	}
	agg := core.AggregateabilityPerRouter(bgp.NewFIBSet([]*bgp.FIB{s3}), sets)[0]
	fmt.Printf("complete name table: %d entries; LPM table: %d entries\n",
		len(sets), int(math.Round(float64(len(sets))/agg)))
	fmt.Printf("aggregateability: %.2fx\n", agg)
	// travel.yahoo.com shares yahoo.com's port, so longest-suffix matching
	// makes its entry redundant; sports.yahoo.com does not.
	travel, _ := s3.Port(sets["travel.yahoo.com"][0])
	if yahoo, _ := s3.Port(sets["yahoo.com"][0]); travel == yahoo {
		fmt.Println("travel.yahoo.com subsumed by yahoo.com, as in Figure 3")
	}
}
