package core

import (
	"testing"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/netaddr"
)

// fuzzTable is a pure-function route table: the port and route for an
// address depend only on its bits, with deliberate holes (addresses with no
// route) so the ok=false paths are exercised.
type fuzzTable struct{}

func (fuzzTable) Port(a netaddr.Addr) (int, bool) {
	if a%5 == 0 {
		return 0, false
	}
	return int(a >> 29), true
}

func (fuzzTable) RouteFor(a netaddr.Addr) (bgp.Route, bool) {
	p, ok := fuzzTable{}.Port(a)
	if !ok {
		return bgp.Route{}, false
	}
	return bgp.Route{NextHop: p, ASPath: make([]int, 1+int(a>>13)%4)}, true
}

// FuzzTimelineWalk builds a content timeline from fuzz bytes and checks
// that the fused single-walk replay (ContentUpdateStatsAllFused) agrees
// strategy-for-strategy with three independent per-strategy replays — the
// equivalence the fused fast path promises.
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

		tbl := fuzzTable{}
		fused := ContentUpdateStatsAllFused(tbl, []cdn.Timeline{*tl})
		want := StrategyStats{
			BestPort: ContentUpdateStats(tbl, tl, BestPort),
			Flooding: ContentUpdateStats(tbl, tl, ControlledFlooding),
			Union:    ContentUpdateStats(tbl, tl, UnionFlooding),
		}
		if fused != want {
			t.Fatalf("fused replay %+v diverges from per-strategy replays %+v over %d events",
				fused, want, len(events))
		}
	})
}
