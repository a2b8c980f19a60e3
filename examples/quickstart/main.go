// Quickstart: the paper's core methodology on a toy router, in one page.
//
// It reproduces the two worked examples from the paper's methodology
// section: the Figure 2 displacement (a device moving between prefixes that
// a router forwards to different ports) and the Figure 3 name-table
// subsumption behind the aggregateability metric, then shows the §3.3.1
// content update-cost definitions for best-port forwarding and controlled
// flooding.
package main

import (
	"fmt"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/core"
	"locind/internal/names"
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

	from := netaddr.MustParseAddr("22.33.44.55")
	to := netaddr.MustParseAddr("22.33.88.55")
	fmt.Printf("device mobility %v -> %v displaces at R: %v\n",
		from, to, core.Displaced(fib, from, to))

	within := netaddr.MustParseAddr("22.33.44.99")
	fmt.Printf("device mobility %v -> %v displaces at R: %v (same longest prefix)\n\n",
		from, within, core.Displaced(fib, from, within))

	// Content mobility (§3.3.1): a name served from both prefixes loses its
	// far replica. The eligible port set changes (flooding updates) but the
	// closest copy stays put (best-port does not).
	// Replaying that one event counts, per strategy, whether R updated.
	before := []netaddr.Addr{from, to}
	after := []netaddr.Addr{from}
	s := core.ContentUpdateStatsAllFused(fib, []cdn.Timeline{{
		Initial: before,
		Events:  []cdn.Event{{Removed: []netaddr.Addr{to}}},
	}})
	fmt.Printf("content %v -> %v:\n", before, after)
	fmt.Printf("  controlled flooding updates: %v\n", s.Flooding.Updates == 1)
	fmt.Printf("  best-port updates:           %v\n\n", s.BestPort.Updates == 1)

	// Figure 3: LPM subsumption in the name space. travel.yahoo.com shares
	// yahoo.com's port, so longest-suffix matching makes its entry
	// redundant; sports.yahoo.com does not.
	complete := map[names.Name]int{
		"yahoo.com":        2,
		"travel.yahoo.com": 2,
		"sports.yahoo.com": 5,
		"cnn.com":          2,
		"mit.edu":          4,
	}
	lpm := names.BuildLPMTable(complete)
	fmt.Printf("complete name table: %d entries; LPM table: %d entries\n", len(complete), len(lpm))
	fmt.Printf("aggregateability: %.2fx\n", names.Aggregateability(complete))
	if _, kept := lpm["travel.yahoo.com"]; !kept {
		fmt.Println("travel.yahoo.com subsumed by yahoo.com, as in Figure 3")
	}
}
