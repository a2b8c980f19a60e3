package core

import (
	"locind/internal/mobility"
	"locind/internal/netaddr"
)

// DeviceUpdateStats is the per-event device replay the move table replaced,
// verbatim: it asks r about both ends of every event. It is the oracle
// MoveTable.Stats is held to (and exported so core_test can reach it).
//
// DeviceUpdateStats measures the fraction of device mobility events that
// induce a forwarding update at router r — the quantity plotted per
// collector in Figure 8.
func DeviceUpdateStats(r PortLookup, events []mobility.MoveEvent) UpdateStats {
	var s UpdateStats
	for _, e := range events {
		s.Events++
		if displaced(r, e.From, e.To) {
			s.Updates++
		}
	}
	return s
}

// displaced is the §3.1 test the oracle applies per event, as production
// code had it until MoveTable.Stats took over its last caller: a mobility
// event from one address to another displaces the endpoint with respect to
// a router iff the two addresses' longest-prefix matches point to different
// output ports. Events where either address has no route are not
// displacements.
func displaced(r PortLookup, from, to netaddr.Addr) bool {
	p1, ok1 := r.Port(from)
	p2, ok2 := r.Port(to)
	return ok1 && ok2 && p1 != p2
}
