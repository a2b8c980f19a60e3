package core

import (
	"sync"
	"testing"

	"locind/internal/cdn"
	"locind/internal/mobility"
	"locind/internal/netaddr"
	"locind/internal/obs"
)

func TestMemoMatchesUnderlying(t *testing.T) {
	r := fakeRouterWithLens(map[string]struct {
		Port int
		Len  int
	}{
		"10.0.0.0/16": {Port: 7, Len: 3},
		"20.0.0.0/16": {Port: 4, Len: 2},
		"30.0.0.0/16": {Port: 7, Len: 5},
	})
	m := NewMemo(r)
	addrs := []string{"10.0.0.1", "20.0.0.1", "30.0.0.1", "99.0.0.1", "10.0.0.1"}
	// Two rounds so the second hits the cache.
	for round := 0; round < 2; round++ {
		for _, s := range addrs {
			a := netaddr.MustParseAddr(s)
			wp, wok := r.Port(a)
			gp, gok := m.Port(a)
			if wp != gp || wok != gok {
				t.Fatalf("round %d: Port(%s) = (%d,%v), want (%d,%v)", round, s, gp, gok, wp, wok)
			}
			wrt, wok2 := r.RouteFor(a)
			grt, gok2 := m.RouteFor(a)
			if wok2 != gok2 || wrt.NextHop != grt.NextHop || wrt.PathLen() != grt.PathLen() {
				t.Fatalf("round %d: RouteFor(%s) diverged", round, s)
			}
		}
	}
}

func TestMemoConcurrent(t *testing.T) {
	r := fakeRouter(map[string]int{
		"10.0.0.0/16": 1,
		"20.0.0.0/16": 2,
	})
	m := NewMemo(r)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if p, ok := m.Port(netaddr.MustParseAddr("10.0.0.1")); !ok || p != 1 {
					t.Errorf("Port = %d,%v", p, ok)
					return
				}
				if _, ok := m.Port(netaddr.MustParseAddr("99.0.0.1")); ok {
					t.Error("unrouted addr resolved")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMemoObserved(t *testing.T) {
	r := fakeRouter(map[string]int{
		"10.0.0.0/16": 1,
		"20.0.0.0/16": 2,
	})
	ms := NewMemoMetrics(obs.NewRegistry())
	m := NewMemoObserved(r, ms)
	a := netaddr.MustParseAddr("10.0.0.1")
	m.Port(a)
	m.Port(a)
	m.Port(netaddr.MustParseAddr("20.0.0.1"))
	if ms.Misses.Value() != 2 || ms.Hits.Value() != 1 {
		t.Fatalf("hits=%d misses=%d", ms.Hits.Value(), ms.Misses.Value())
	}
}

// The fused single-walk evaluation must count exactly what three separate
// strategy-at-a-time walks count, with and without memoization.
func TestFusedMatchesSeparateWalks(t *testing.T) {
	r := fakeRouterWithLens(map[string]struct {
		Port int
		Len  int
	}{
		"10.0.0.0/16": {Port: 1, Len: 2},
		"20.0.0.0/16": {Port: 2, Len: 3},
		"30.0.0.0/16": {Port: 3, Len: 4},
	})
	a10 := netaddr.MustParseAddr("10.0.0.1")
	a10b := netaddr.MustParseAddr("10.0.0.2")
	a20 := netaddr.MustParseAddr("20.0.0.1")
	a30 := netaddr.MustParseAddr("30.0.0.1")
	tls := []cdn.Timeline{
		{
			Site:    cdn.Site{Name: "a.com"},
			Hours:   6,
			Initial: []netaddr.Addr{a10},
			Events: []cdn.Event{
				{Hour: 1, Removed: []netaddr.Addr{a10}, Added: []netaddr.Addr{a20}},
				{Hour: 2, Removed: []netaddr.Addr{a20}, Added: []netaddr.Addr{a10b}},
				{Hour: 3, Added: []netaddr.Addr{a30}},
				{Hour: 4, Removed: []netaddr.Addr{a30}},
			},
		},
		{
			Site:    cdn.Site{Name: "b.com"},
			Hours:   4,
			Initial: []netaddr.Addr{a10, a20},
			Events: []cdn.Event{
				{Hour: 1, Removed: []netaddr.Addr{a20}, Added: []netaddr.Addr{a30}},
				{Hour: 2, Removed: []netaddr.Addr{a10}},
			},
		},
		{
			// A load balancer rotating a30 out and back in: the address
			// enters the set three times.
			Site:    cdn.Site{Name: "lb.net"},
			Hours:   5,
			Initial: []netaddr.Addr{a10, a20},
			Events: []cdn.Event{
				{Hour: 1, Removed: []netaddr.Addr{a20}, Added: []netaddr.Addr{a30}},
				{Hour: 2, Removed: []netaddr.Addr{a30}, Added: []netaddr.Addr{a20}},
				{Hour: 3, Removed: []netaddr.Addr{a20}, Added: []netaddr.Addr{a30}},
				{Hour: 4, Added: []netaddr.Addr{a20}},
			},
		},
		{
			// No events at all: every strategy must report zero of each.
			Site:    cdn.Site{Name: "quiet.org"},
			Hours:   3,
			Initial: []netaddr.Addr{a10},
		},
	}
	for _, lookup := range []RouteLookup{r, NewMemo(r)} {
		fused := ContentUpdateStatsAllFused(lookup, tls)
		bp := ContentUpdateStatsAll(lookup, tls, BestPort)
		fl := ContentUpdateStatsAll(lookup, tls, ControlledFlooding)
		un := ContentUpdateStatsAll(lookup, tls, UnionFlooding)
		if fused.BestPort != bp {
			t.Fatalf("fused best-port %+v != separate %+v", fused.BestPort, bp)
		}
		if fused.Flooding != fl {
			t.Fatalf("fused flooding %+v != separate %+v", fused.Flooding, fl)
		}
		if fused.Union != un {
			t.Fatalf("fused union %+v != separate %+v", fused.Union, un)
		}
	}

	// The fused walk asks the router about an address once per timeline,
	// however often it leaves and comes back: a.com's four distinct
	// addresses, b.com's three and lb.net's three (where addresses enter
	// six times), quiet.org never replayed — ten lookups, read off a
	// memo's counters. The timelines share addresses, so a resolution table
	// that outlived its timeline would ask fewer times.
	ms := NewMemoMetrics(obs.NewRegistry())
	ContentUpdateStatsAllFused(NewMemoObserved(r, ms), tls)
	if asked := ms.Hits.Value() + ms.Misses.Value(); asked != 10 {
		t.Fatalf("fused walk asked the router %d times, want 10: one RouteFor per distinct address per timeline", asked)
	}
}

// A memoized router must leave DeviceUpdateStats untouched.
func TestMemoDeviceStatsIdentical(t *testing.T) {
	r := fakeRouter(map[string]int{
		"10.0.0.0/16": 1,
		"20.0.0.0/16": 2,
		"30.0.0.0/16": 1,
	})
	mk := func(from, to string) mobility.MoveEvent {
		return mobility.MoveEvent{
			From: mobility.Location{Addr: netaddr.MustParseAddr(from)},
			To:   mobility.Location{Addr: netaddr.MustParseAddr(to)},
		}
	}
	evs := []mobility.MoveEvent{
		mk("10.0.0.1", "20.0.0.1"),
		mk("20.0.0.1", "10.0.0.2"),
		mk("10.0.0.2", "30.0.0.1"),
		mk("10.0.0.2", "10.0.9.9"),
	}
	raw := DeviceUpdateStats(r, evs)
	memo := DeviceUpdateStats(NewMemo(r), evs)
	if raw != memo {
		t.Fatalf("memoized stats %+v != raw %+v", memo, raw)
	}
}
