package core

import (
	"slices"
	"testing"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/mobility"
	"locind/internal/netaddr"
)

// fakeRouter is a hand-built FIB for unit tests.
func fakeRouter(entries map[string]int) *bgp.FIB {
	var routes []bgp.Route
	for p, port := range entries {
		routes = append(routes, bgp.Route{Prefix: netaddr.MustParsePrefix(p), NextHop: port, ASPath: []int{port, 999}})
	}
	return bgp.NewRIB(routes).DeriveFIB()
}

// fakeRouterWithLens builds a FIB whose routes have chosen AS-path lengths.
func fakeRouterWithLens(entries map[string]struct {
	Port int
	Len  int
}) *bgp.FIB {
	var routes []bgp.Route
	for p, e := range entries {
		path := make([]int, e.Len+1)
		path[0] = e.Port
		routes = append(routes, bgp.Route{Prefix: netaddr.MustParsePrefix(p), NextHop: e.Port, ASPath: path})
	}
	return bgp.NewRIB(routes).DeriveFIB()
}

func TestDisplacedPaperExample(t *testing.T) {
	// Figure 2: /24 -> port 5, /16 -> port 3; moving 22.33.44.55 ->
	// 22.33.88.55 is a displacement.
	r := fakeRouter(map[string]int{
		"22.33.44.0/24": 5,
		"22.33.0.0/16":  3,
	})
	move := func(from, to string) []mobility.MoveEvent {
		return []mobility.MoveEvent{{
			From: netaddr.MustParseAddr(from),
			To:   netaddr.MustParseAddr(to),
		}}
	}
	got := NewMoveTable(
		move("22.33.44.55", "22.33.88.55"),
		move("22.33.44.55", "22.33.44.99"), // within the /24
		move("99.0.0.1", "22.33.44.1"),     // from an unrouted address
		move("22.33.44.1", "99.0.0.1"),     // to one
	).Stats(r)
	want := []UpdateStats{{1, 1}, {1, 0}, {1, 0}, {1, 0}}
	if !slices.Equal(got, want) {
		t.Fatalf("Stats = %v, want %v: only the move across the prefixes displaces", got, want)
	}
}

func TestUpdateStats(t *testing.T) {
	var s UpdateStats
	if s.Rate() != 0 {
		t.Fatal("empty rate should be 0")
	}
	s.Add(UpdateStats{Events: 4, Updates: 1})
	s.Add(UpdateStats{Events: 6, Updates: 2})
	if s.Events != 10 || s.Updates != 3 || s.Rate() != 0.3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDeviceUpdateStats(t *testing.T) {
	r := fakeRouter(map[string]int{
		"10.0.0.0/16": 1,
		"20.0.0.0/16": 2,
		"30.0.0.0/16": 1, // same port as 10/16
	})
	mk := func(from, to string) mobility.MoveEvent {
		return mobility.MoveEvent{
			From: netaddr.MustParseAddr(from),
			To:   netaddr.MustParseAddr(to),
		}
	}
	evs := []mobility.MoveEvent{
		mk("10.0.0.1", "20.0.0.1"), // port 1 -> 2: update
		mk("20.0.0.1", "10.0.0.2"), // update
		mk("10.0.0.2", "30.0.0.1"), // port 1 -> 1: no update
		mk("10.0.0.2", "10.0.9.9"), // same prefix: no update
	}
	s := DeviceUpdateStats(r, evs)
	if s.Events != 4 || s.Updates != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if got := NewMoveTable(evs).Stats(r); len(got) != 1 || got[0] != s {
		t.Fatalf("move table %+v, per-event replay %+v", got, s)
	}
}

func TestPortSetAndBestPort(t *testing.T) {
	r := fakeRouterWithLens(map[string]struct {
		Port int
		Len  int
	}{
		"10.0.0.0/16": {Port: 7, Len: 3},
		"20.0.0.0/16": {Port: 4, Len: 2},
		"30.0.0.0/16": {Port: 7, Len: 5},
	})
	addrs := []netaddr.Addr{
		netaddr.MustParseAddr("10.0.0.1"),
		netaddr.MustParseAddr("20.0.0.1"),
		netaddr.MustParseAddr("30.0.0.1"),
		netaddr.MustParseAddr("99.0.0.1"), // unrouted, skipped
	}
	ps := PortSet(r, addrs)
	if len(ps) != 2 || ps[0] != 4 || ps[1] != 7 {
		t.Fatalf("PortSet = %v", ps)
	}
	best, ok := BestPortOf(r, addrs)
	if !ok || best != 4 {
		t.Fatalf("BestPortOf = %d, %v (want shortest path via port 4)", best, ok)
	}
	if _, ok := BestPortOf(r, []netaddr.Addr{netaddr.MustParseAddr("99.0.0.1")}); ok {
		t.Fatal("unrouted set should have no best port")
	}
	if got := PortSet(r, nil); len(got) != 0 {
		t.Fatal("empty set should have no ports")
	}
}

func TestBestPortDeterministicTieBreak(t *testing.T) {
	r := fakeRouterWithLens(map[string]struct {
		Port int
		Len  int
	}{
		"10.0.0.0/16": {Port: 9, Len: 2},
		"20.0.0.0/16": {Port: 3, Len: 2},
	})
	best, _ := BestPortOf(r, []netaddr.Addr{
		netaddr.MustParseAddr("10.0.0.1"),
		netaddr.MustParseAddr("20.0.0.1"),
	})
	if best != 3 {
		t.Fatalf("tie should break to lower port, got %d", best)
	}
}

func TestContentUpdated(t *testing.T) {
	r := fakeRouterWithLens(map[string]struct {
		Port int
		Len  int
	}{
		"10.0.0.0/16": {Port: 1, Len: 2},
		"20.0.0.0/16": {Port: 2, Len: 3},
		"30.0.0.0/16": {Port: 3, Len: 4},
	})
	a10 := netaddr.MustParseAddr("10.0.0.1")
	a10b := netaddr.MustParseAddr("10.0.7.7")
	a20 := netaddr.MustParseAddr("20.0.0.1")
	a30 := netaddr.MustParseAddr("30.0.0.1")

	// Swapping a far address while the closest stays: flooding updates,
	// best-port does not — the paper's central content observation.
	before := []netaddr.Addr{a10, a20}
	after := []netaddr.Addr{a10, a30}
	if ContentUpdated(r, before, after, BestPort) {
		t.Fatal("best port unchanged, must not update")
	}
	if !ContentUpdated(r, before, after, ControlledFlooding) {
		t.Fatal("port set changed, flooding must update")
	}
	// Intra-AS address rotation changes neither.
	if ContentUpdated(r, []netaddr.Addr{a10}, []netaddr.Addr{a10b}, ControlledFlooding) {
		t.Fatal("same-port rotation must not update flooding")
	}
	// Losing the closest address flips the best port.
	if !ContentUpdated(r, before, []netaddr.Addr{a20}, BestPort) {
		t.Fatal("losing the best address must update best-port")
	}
}

func TestContentUpdatedPanicsOnStateful(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("UnionFlooding via ContentUpdated should panic")
		}
	}()
	r := fakeRouter(map[string]int{"10.0.0.0/16": 1})
	ContentUpdated(r, nil, nil, UnionFlooding)
}

func TestContentUpdateStatsUnionFlooding(t *testing.T) {
	r := fakeRouterWithLens(map[string]struct {
		Port int
		Len  int
	}{
		"10.0.0.0/16": {Port: 1, Len: 2},
		"20.0.0.0/16": {Port: 2, Len: 3},
	})
	a10 := netaddr.MustParseAddr("10.0.0.1")
	a10b := netaddr.MustParseAddr("10.0.0.2")
	a20 := netaddr.MustParseAddr("20.0.0.1")
	tl := &cdn.Timeline{
		Site:    cdn.Site{Name: "d.com"},
		Hours:   5,
		Initial: []netaddr.Addr{a10},
		Events: []cdn.Event{
			{Hour: 1, Removed: []netaddr.Addr{a10}, Added: []netaddr.Addr{a20}},  // new port 2: update
			{Hour: 2, Removed: []netaddr.Addr{a20}, Added: []netaddr.Addr{a10b}}, // port 1 already seen: no update
			{Hour: 3, Removed: []netaddr.Addr{a10b}, Added: []netaddr.Addr{a20}}, // port 2 already seen: no update
		},
	}
	s := ContentUpdateStats(r, tl, UnionFlooding)
	if s.Events != 3 || s.Updates != 1 {
		t.Fatalf("union stats = %+v", s)
	}
	// Controlled flooding updates on every flip; union never after seeing
	// both — §3.3.3's point.
	cf := ContentUpdateStats(r, tl, ControlledFlooding)
	if cf.Updates != 3 {
		t.Fatalf("flooding stats = %+v", cf)
	}
	if cf.Updates <= s.Updates {
		// (also implied by the explicit numbers above)
		t.Fatal("union flooding must not exceed controlled flooding updates")
	}
}

func TestStrategyString(t *testing.T) {
	if BestPort.String() != "best-port" || ControlledFlooding.String() != "controlled-flooding" ||
		UnionFlooding.String() != "union-flooding" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(9).String() == "" {
		t.Fatal("unknown strategy should render")
	}
}

func TestTablesAndAggregateability(t *testing.T) {
	r := fakeRouterWithLens(map[string]struct {
		Port int
		Len  int
	}{
		"10.0.0.0/16": {Port: 2, Len: 2},
		"20.0.0.0/16": {Port: 5, Len: 3},
	})
	a10 := []netaddr.Addr{netaddr.MustParseAddr("10.0.0.1")}
	a20 := []netaddr.Addr{netaddr.MustParseAddr("20.0.0.1")}
	both := []netaddr.Addr{a10[0], a20[0]}
	sets := map[cdn.Name][]netaddr.Addr{
		"yahoo.com":        a10,
		"travel.yahoo.com": a10,                                 // same port: subsumed
		"sports.yahoo.com": a20,                                 // different port: kept
		"cnn.com":          both,                                // best = port 2 (shorter)
		"ghost.com":        {netaddr.MustParseAddr("99.0.0.1")}, // unrouted: dropped
	}
	table := BestPortTable(r, sets)
	if len(table) != 4 {
		t.Fatalf("table = %v", table)
	}
	if table["cnn.com"] != 2 {
		t.Fatalf("cnn.com best port = %d", table["cnn.com"])
	}
	agg := AggregateabilityBestPort(r, sets)
	if agg != 4.0/3.0 {
		t.Fatalf("aggregateability = %v, want 4/3", agg)
	}
}

func TestBackOfEnvelope(t *testing.T) {
	// §6.2.2: 2B devices × 3/day × 3% ≈ 2.08K/sec.
	got := UpdateLoadPerSec(2e9, 3, 0.03)
	if got < 2000 || got > 2200 {
		t.Fatalf("device update load = %v, want ~2083", got)
	}
	// 2B × 7/day × 3% ≈ 4.86K/sec.
	got = UpdateLoadPerSec(2e9, 7, 0.03)
	if got < 4600 || got > 5000 {
		t.Fatalf("mean-user load = %v, want ~4861", got)
	}
	// §7.3: 1B names × 2/day × 0.5% ≈ 115/sec ("at most 100 updates/sec"
	// order of magnitude).
	got = UpdateLoadPerSec(1e9, 2, 0.005)
	if got < 100 || got > 130 {
		t.Fatalf("content update load = %v, want ~116", got)
	}
	// §6.2.2: 3% update rate × 30% away ≈ 1% extra FIB entries.
	if f := ExtraFIBFraction(0.03, 0.3); f < 0.008 || f > 0.01 {
		t.Fatalf("extra FIB fraction = %v, want ~0.009", f)
	}
}

func TestIndirectionStretchHopsEmpty(t *testing.T) {
	g := asgraph.NewGraph(3)
	if got := IndirectionStretchHops(g, nil); len(got) != 0 {
		t.Fatal("no pairs should yield no hops")
	}
}
