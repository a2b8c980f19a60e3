package core

import (
	"math"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"locind/internal/bgp"
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
	r := fakeRouterWithLens(map[string]struct {
		Port int
		Len  int
	}{
		"10.0.0.0/16": {Port: 1, Len: 2},
		"20.0.0.0/16": {Port: 2, Len: 4},
	})
	m := NewMemo(r)
	addrs := []netaddr.Addr{
		netaddr.MustParseAddr("10.0.0.1"), netaddr.MustParseAddr("10.0.7.7"),
		netaddr.MustParseAddr("20.0.0.1"), netaddr.MustParseAddr("99.0.0.1"),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		// Half the goroutines ask for the port first, half for the route,
		// so both maps of a stripe fill while the other is read.
		portFirst := g%2 == 0
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, a := range addrs {
					wp, wok := r.Port(a)
					wrt, wrok := r.RouteFor(a)
					var (
						port    int
						ok, rok bool
						rt      bgp.Route
					)
					if portFirst {
						port, ok = m.Port(a)
						rt, rok = m.RouteFor(a)
					} else {
						rt, rok = m.RouteFor(a)
						port, ok = m.Port(a)
					}
					if port != wp || ok != wok || rok != wrok || rt.NextHop != wrt.NextHop || rt.PathLen() != wrt.PathLen() {
						t.Errorf("%v: Port = %d,%v RouteFor = %d/%d,%v; want %d,%v and %d/%d,%v",
							a, port, ok, rt.NextHop, rt.PathLen(), rok, wp, wok, wrt.NextHop, wrt.PathLen(), wrok)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// answerLookup is a RouteLookup that answers from a table of (port, ok)
// pairs, any int a next hop can hold, and counts the questions it is asked.
type answerLookup struct {
	ans          map[netaddr.Addr]answer
	ports, route int
}

type answer struct {
	port int
	ok   bool
}

func (l *answerLookup) Port(a netaddr.Addr) (int, bool) {
	l.ports++
	x, found := l.ans[a]
	if !found {
		return -1, false
	}
	return x.port, x.ok
}

func (l *answerLookup) RouteFor(a netaddr.Addr) (bgp.Route, bool) {
	l.route++
	x, found := l.ans[a]
	if !found || !x.ok {
		return bgp.Route{}, false
	}
	return bgp.Route{NextHop: x.port, ASPath: []int{x.port, 7}}, true
}

// TestMemoPortIsExact holds Port and RouteFor to the wrapped lookup for every
// kind of answer a PortLookup can give, whichever is asked first, on a miss
// and on a hit, and checks that Port keeps every answer it can hold in its
// four-byte entry: a second Port on such an address is a hit and does not
// reach the wrapped lookup.
func TestMemoPortIsExact(t *testing.T) {
	answers := []answer{
		{-1, true}, {0, true}, {1, true}, {math.MaxInt32, true},
		{math.MinInt32 + 1, true}, {math.MinInt32, true}, {math.MinInt, true},
		{-1, false}, {0, false}, {math.MaxInt32, false},
	}
	if strconv.IntSize == 64 {
		var wide int64 = math.MaxInt32 + 1
		answers = append(answers, answer{int(wide), true}, answer{math.MaxInt, true})
	}
	for i, x := range answers {
		for _, portFirst := range []bool{true, false} {
			a := netaddr.Addr(1000 + i)
			l := &answerLookup{ans: map[netaddr.Addr]answer{a: x}}
			ms := NewMemoMetrics(obs.NewRegistry())
			m := NewMemoObserved(l, ms)
			wantRT, wantRTOK := l.RouteFor(a)
			checkPort := func(round int) {
				if p, ok := m.Port(a); p != x.port || ok != x.ok {
					t.Fatalf("answer %+v, port first %v, round %d: Port = (%d,%v)", x, portFirst, round, p, ok)
				}
			}
			checkRoute := func(round int) {
				rt, ok := m.RouteFor(a)
				if ok != wantRTOK || rt.NextHop != wantRT.NextHop || rt.PathLen() != wantRT.PathLen() {
					t.Fatalf("answer %+v, port first %v, round %d: RouteFor = (%d/%d,%v), want (%d/%d,%v)",
						x, portFirst, round, rt.NextHop, rt.PathLen(), ok, wantRT.NextHop, wantRT.PathLen(), wantRTOK)
				}
			}
			for round := 0; round < 2; round++ {
				if portFirst {
					checkPort(round)
					checkRoute(round)
				} else {
					checkRoute(round)
					checkPort(round)
				}
			}
			_, fits := packPort(x.port, x.ok)
			wantPorts := 2
			if fits {
				wantPorts = 1
			}
			if l.ports != wantPorts || l.route != 2 {
				t.Fatalf("answer %+v (fits %v), port first %v: wrapped lookup asked %d Port and %d RouteFor (one ours), want %d and 2",
					x, fits, portFirst, l.ports, l.route, wantPorts)
			}
			if h, mi := ms.Hits.Value(), ms.Misses.Value(); h+mi != 4 || mi != int64(wantPorts)+1 {
				t.Fatalf("answer %+v, port first %v: hits %d misses %d, want 4 lookups and %d misses", x, portFirst, h, mi, wantPorts+1)
			}
		}
	}
	for _, x := range []answer{{0, true}, {-1, true}, {math.MaxInt32, true}, {-1, false}} {
		if _, fits := packPort(x.port, x.ok); !fits {
			t.Fatalf("answer %+v is not memoized", x)
		}
	}
}

// TestMemoPortAllocCeiling bounds what Port allocates per distinct address
// it memoizes: the port maps' slots of eight bytes (address and entry) and
// their growth. At 50 000 addresses that measured 24.5 B on amd64 and on
// 386; the ceiling leaves 60 % over it. A Port that kept a route entry per
// address instead, as RouteFor does, measured 233 B on amd64 and 126 B on
// 386.
func TestMemoPortAllocCeiling(t *testing.T) {
	const n, ceiling = 50000, 40.0
	m := NewMemo(guardRouter())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, ok := m.Port(netaddr.Addr(i * 65521)); !ok {
			t.Fatalf("address %d unrouted", i)
		}
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per > ceiling {
		t.Fatalf("Port allocated %.1f B per distinct address, ceiling %.0f", per, ceiling)
	}
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
			From: netaddr.MustParseAddr(from),
			To:   netaddr.MustParseAddr(to),
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
