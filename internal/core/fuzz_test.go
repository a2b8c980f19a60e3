package core

import (
	"reflect"
	"slices"
	"testing"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/mobility"
	"locind/internal/netaddr"
)

// fuzzTable is a pure-function route table: the port and route for an
// address depend only on its bits — its top 32-shift bits name the port —
// with deliberate holes (addresses with no route) so the ok=false paths are
// exercised.
type fuzzTable struct{ shift int }

func (f fuzzTable) Port(a netaddr.Addr) (int, bool) {
	if a%5 == 0 {
		return 0, false
	}
	return int(a >> f.shift), true
}

func (f fuzzTable) RouteFor(a netaddr.Addr) (bgp.Route, bool) {
	p, ok := f.Port(a)
	if !ok {
		return bgp.Route{}, false
	}
	return bgp.Route{NextHop: p, ASPath: make([]int, 1+int(a>>13)%4)}, true
}

// fuzzRouters are the routers FuzzTimelineWalk replays against: 8 ports, a
// 256-port router whose port sets take up to four bitset words, and 32
// ports.
var fuzzRouters = []fuzzTable{{shift: 29}, {shift: 24}, {shift: 27}}

// FuzzTimelineWalk builds a content timeline from fuzz bytes and checks
// that the multi-router kernel (ContentUpdateStatsPerRouter), over one to
// three routers, agrees at every router strategy-for-strategy with three
// independent per-strategy replays — the equivalence the fused fast path
// promises. The router count is the input length mod 3, plus one. It also
// holds the timeline's hourly sets to the round trip through cdn.FromSets
// (checkFromSets).
//
// Encoding: up to four initial 4-byte addresses, then event chunks of one
// control byte (hour advance, removal and addition counts) followed by one
// pool-index byte per removal and four address octets per addition.
//
// testdata/fuzz/FuzzTimelineWalk holds the cases the carry-forward merge has
// to get right and random bytes rarely spell: an address removed and re-added
// in one event, an initial set that repeats an address, and addresses
// fuzzTable has no route for.
func FuzzTimelineWalk(f *testing.F) {
	f.Add([]byte{
		22, 33, 44, 55, 10, 0, 0, 1, 96, 0, 0, 2, 64, 0, 0, 3,
		0x15, 0, 200, 1, 2, 3, 0x2a, 1, 0,
	})
	f.Add([]byte{8, 0, 0, 1, 0x11, 9, 0, 0, 2, 0x05, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		var initial []netaddr.Addr
		for k := 0; k < 4 && i+4 <= len(data); k++ {
			initial = append(initial, netaddr.MakeAddr(data[i], data[i+1], data[i+2], data[i+3]))
			i += 4
		}
		pool := append([]netaddr.Addr(nil), initial...)
		hour := 0
		var events []cdn.Event
		for i < len(data) && len(events) < 64 {
			ctl := data[i]
			i++
			hour += int(ctl % 3)
			e := cdn.Event{Hour: hour}
			// Removals pick from the pool of seen addresses so they usually
			// hit; additions introduce fresh addresses into the pool.
			for k := 0; k < int(ctl>>2)%3 && i < len(data) && len(pool) > 0; k++ {
				e.Removed = append(e.Removed, pool[int(data[i])%len(pool)])
				i++
			}
			for k := 0; k < int(ctl>>4)%3 && i+4 <= len(data); k++ {
				a := netaddr.MakeAddr(data[i], data[i+1], data[i+2], data[i+3])
				i += 4
				e.Added = append(e.Added, a)
				pool = append(pool, a)
			}
			events = append(events, e)
		}
		tl := &cdn.Timeline{Hours: hour + 1, Initial: initial, Events: events}
		checkFromSets(t, tl)

		rs := make(Each, 1+len(data)%3)
		for k := range rs {
			rs[k] = fuzzRouters[k]
		}
		for k, fused := range ContentUpdateStatsPerRouter(rs, []cdn.Timeline{*tl}) {
			want := StrategyStats{
				BestPort: ContentUpdateStats(rs[k], tl, BestPort),
				Flooding: ContentUpdateStats(rs[k], tl, ControlledFlooding),
				Union:    ContentUpdateStats(rs[k], tl, UnionFlooding),
			}
			if fused != want {
				t.Fatalf("router %d of %d: fused replay %+v diverges from per-strategy replays %+v over %d events",
					k, len(rs), fused, want, len(events))
			}
		}
	})
}

// checkFromSets holds cdn.FromSets to being SetAt's inverse on tl: the
// rebuilt timeline has tl's set at every hour; its events fall at increasing
// hours from 1 on, each non-empty, with sorted, disjoint Removed and Added;
// and rebuilding it from its own sets gives it back unchanged.
func checkFromSets(t *testing.T, tl *cdn.Timeline) {
	t.Helper()
	got := cdn.FromSets(tl.Site, tl.Hours, tl.SetAt)
	for h := 0; h < tl.Hours; h++ {
		if want, have := tl.SetAt(h), got.SetAt(h); !slices.Equal(have, want) {
			t.Fatalf("hour %d: rebuilt set %v, timeline's %v", h, have, want)
		}
	}
	last := 0
	for _, e := range got.Events {
		if e.Hour <= last || e.Hour >= tl.Hours {
			t.Fatalf("event at hour %d after one at %d in %d hours", e.Hour, last, tl.Hours)
		}
		last = e.Hour
		if len(e.Removed)+len(e.Added) == 0 {
			t.Fatalf("empty event at hour %d", e.Hour)
		}
		if !slices.IsSorted(e.Removed) || !slices.IsSorted(e.Added) {
			t.Fatalf("hour %d: unsorted delta -%v +%v", e.Hour, e.Removed, e.Added)
		}
		for _, a := range e.Removed {
			if _, both := slices.BinarySearch(e.Added, a); both {
				t.Fatalf("hour %d: %v both removed and added", e.Hour, a)
			}
		}
	}
	// An empty Initial may be nil or not, depending on which buffer SetAt
	// cloned; the events are built the same way on both passes.
	again := cdn.FromSets(got.Site, got.Hours, got.SetAt)
	if !slices.Equal(again.Initial, got.Initial) || !reflect.DeepEqual(again.Events, got.Events) {
		t.Fatalf("rebuilt from its own sets: %+v, was %+v", again, got)
	}
}

// A router with more ports than one bitset word holds takes the same path
// as a narrow one: a timeline that walks through 200 of the 256-port
// router's ports, replayed beside the 8-port router, must agree with the
// per-strategy replays at both.
func TestWidePortSetsMatchPerStrategy(t *testing.T) {
	tl := &cdn.Timeline{Hours: 202, Initial: []netaddr.Addr{netaddr.MakeAddr(0, 1, 2, 3)}}
	for i := 1; i <= 200; i++ {
		e := cdn.Event{Hour: i, Added: []netaddr.Addr{netaddr.MakeAddr(byte(i), 1, 2, 3)}}
		if i > 3 {
			e.Removed = []netaddr.Addr{netaddr.MakeAddr(byte(i-3), 1, 2, 3)}
		}
		tl.Events = append(tl.Events, e)
	}
	rs := Each{fuzzRouters[1], fuzzRouters[0]}
	for k, got := range ContentUpdateStatsPerRouter(rs, []cdn.Timeline{*tl}) {
		want := StrategyStats{
			BestPort: ContentUpdateStats(rs[k], tl, BestPort),
			Flooding: ContentUpdateStats(rs[k], tl, ControlledFlooding),
			Union:    ContentUpdateStats(rs[k], tl, UnionFlooding),
		}
		if got != want {
			t.Fatalf("router %d: %+v, per-strategy replays %+v", k, got, want)
		}
	}
}

// FuzzMoveTable builds groups of device moves from fuzz bytes and checks that
// the move table, at one to three routers, counts every group exactly as the
// per-event replay (DeviceUpdateStats) does, asking each router about each
// distinct event address once and about nothing else.
//
// Encoding: one header byte (routers 1 + b%3, groups 1 + (b>>2)%3), then event
// chunks of one control byte — the event's group is ctl % groups; bits 2 and
// 3 make From and To reuse an address already seen, named by one index byte —
// followed by each fresh end's four address octets.
//
// testdata/fuzz/FuzzMoveTable holds what random bytes rarely spell: one
// address at both ends of many events across groups, a self-move, ends
// fuzzTable has no route for, and a group with no events.
func FuzzMoveTable(f *testing.F) {
	f.Add([]byte{0x06, 0x00, 22, 33, 44, 55, 22, 33, 88, 55, 0x0d, 0, 10, 0, 0, 5, 0x0e, 2, 1})
	f.Add([]byte{0x00, 0x0c, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		groups := make([][]mobility.MoveEvent, 1+int(data[0]>>2)%3)
		nRouters := 1 + int(data[0])%3
		i := 1
		var pool []netaddr.Addr
		end := func(reuse bool) (netaddr.Addr, bool) {
			if reuse && len(pool) > 0 && i < len(data) {
				i++
				return pool[int(data[i-1])%len(pool)], true
			}
			if i+4 > len(data) {
				return 0, false
			}
			a := netaddr.MakeAddr(data[i], data[i+1], data[i+2], data[i+3])
			i += 4
			pool = append(pool, a)
			return a, true
		}
		for i < len(data) {
			ctl := data[i]
			i++
			from, ok1 := end(ctl&4 != 0)
			to, ok2 := end(ctl&8 != 0)
			if !ok1 || !ok2 {
				break
			}
			g := int(ctl) % len(groups)
			groups[g] = append(groups[g], mobility.MoveEvent{
				From: from,
				To:   to,
			})
		}
		distinct := map[netaddr.Addr]bool{}
		for _, g := range groups {
			for _, e := range g {
				distinct[e.From], distinct[e.To] = true, true
			}
		}
		moves := NewMoveTable(groups...)
		for k := 0; k < nRouters; k++ {
			asked := map[netaddr.Addr]int{}
			got := moves.Stats(portFunc(func(a netaddr.Addr) (int, bool) {
				asked[a]++
				return fuzzRouters[k].Port(a)
			}))
			if len(got) != len(groups) {
				t.Fatalf("router %d: %d group totals for %d groups", k, len(got), len(groups))
			}
			for g, events := range groups {
				if want := DeviceUpdateStats(fuzzRouters[k], events); got[g] != want {
					t.Fatalf("router %d of %d, group %d of %d: table %+v, per-event replay %+v",
						k, nRouters, g, len(groups), got[g], want)
				}
			}
			if len(asked) != len(distinct) {
				t.Fatalf("router %d: asked about %d addresses, the events hold %d", k, len(asked), len(distinct))
			}
			for a, n := range asked {
				if n != 1 || !distinct[a] {
					t.Fatalf("router %d: asked about %v %d times (an event address: %v), want once", k, a, n, distinct[a])
				}
			}
		}
	})
}

// portFunc adapts a function to PortLookup.
type portFunc func(netaddr.Addr) (int, bool)

func (f portFunc) Port(a netaddr.Addr) (int, bool) { return f(a) }
