package core

import "locind/internal/mobility"

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
		if Displaced(r, e.From.Addr, e.To.Addr) {
			s.Updates++
		}
	}
	return s
}
