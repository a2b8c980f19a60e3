package core

import (
	"slices"
	"testing"

	"locind/internal/cdn"
	"locind/internal/lint/allocguard"
	"locind/internal/netaddr"
)

// guardTimeline mirrors the cdn test helper: a two-address set where every
// event retires the previously added address and introduces a fresh one.
func guardTimeline(events int) cdn.Timeline {
	tl := cdn.Timeline{Hours: events + 2, Initial: []netaddr.Addr{10, 20}}
	for i := 0; i < events; i++ {
		ev := cdn.Event{Hour: i + 1, Added: []netaddr.Addr{netaddr.Addr(1000 + i)}}
		if i == 0 {
			ev.Removed = []netaddr.Addr{10}
		} else {
			ev.Removed = []netaddr.Addr{netaddr.Addr(1000 + i - 1)}
		}
		tl.Events = append(tl.Events, ev)
	}
	return tl
}

// guardRouter covers every guardTimeline address with a default route plus
// one more-specific, so best-port answers and displacement checks both
// exercise real FIB lookups.
func guardRouter() RouteLookup {
	return fakeRouter(map[string]int{
		"0.0.0.0/0": 3,
		"0.0.0.0/8": 5,
	})
}

func TestAllocGuard(t *testing.T) { allocguard.Check(t, allocGuardHarness()) }

// allocGuardHarness maps each //lint:zeroalloc symbol in this package to
// its measurement, consumed by TestAllocGuard. The fused
// replays allocate fixed per-call scratch, so their measurements are
// differential (large minus small workload); the Memo hit path after
// warm-up must be absolutely allocation-free.
func allocGuardHarness() map[string]func(t *testing.T) float64 {
	return map[string]func(t *testing.T) float64{
		"ContentUpdateStatsAllFused": func(t *testing.T) float64 {
			r := guardRouter()
			pool := func(events int) []cdn.Timeline {
				tls := make([]cdn.Timeline, 8)
				for i := range tls {
					tls[i] = guardTimeline(events)
				}
				return tls
			}
			small, large := pool(16), pool(512)
			poolAllocs := func(tls []cdn.Timeline) float64 {
				return testing.AllocsPerRun(10, func() {
					if s := ContentUpdateStatsAllFused(r, tls); s.BestPort.Events == 0 {
						t.Fatal("pooled replay saw no events")
					}
				})
			}
			// A second pass over the pool inside one call finds the scratch
			// warm: it may cost what Timeline.Walk allocates for its own
			// buffers and nothing on top.
			walkAllocs := testing.AllocsPerRun(10, func() {
				for i := range small {
					small[i].Walk(func(cdn.Event, []netaddr.Addr, []netaddr.Addr) {})
				}
			})
			twice := slices.Concat(small, small)
			if extra := poolAllocs(twice) - poolAllocs(small) - walkAllocs; extra != 0 {
				t.Errorf("second pass over the pool allocates %.1f times beyond Timeline.Walk's own", extra)
			}
			return poolAllocs(large) - poolAllocs(small)
		},
		"Memo.Port": func(t *testing.T) float64 {
			m := NewMemo(guardRouter())
			addrs := []netaddr.Addr{10, 20, 1000, 2000, 3000}
			for _, a := range addrs {
				m.Port(a) // warm the stripes
			}
			return testing.AllocsPerRun(100, func() {
				for _, a := range addrs {
					if _, ok := m.Port(a); !ok {
						t.Fatalf("no port for %v", a)
					}
				}
			})
		},
		"Memo.RouteFor": func(t *testing.T) float64 {
			m := NewMemo(guardRouter())
			addrs := []netaddr.Addr{10, 20, 1000, 2000, 3000}
			for _, a := range addrs {
				m.RouteFor(a) // warm the stripes
			}
			return testing.AllocsPerRun(100, func() {
				for _, a := range addrs {
					if _, ok := m.RouteFor(a); !ok {
						t.Fatalf("no route for %v", a)
					}
				}
			})
		},
	}
}
