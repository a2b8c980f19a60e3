package core

import (
	"slices"
	"testing"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/lint/allocguard"
	"locind/internal/netaddr"
)

// guardTimeline is a two-address set where every event retires the
// previously added address and brings in the next of distinct rotating ones:
// distinct == events introduces a fresh address at every event, a small
// distinct brings back addresses the timeline has already met, the
// load-balancer rotation the per-timeline resolution table is for.
func guardTimeline(events, distinct int) cdn.Timeline {
	tl := cdn.Timeline{Hours: events + 2, Initial: []netaddr.Addr{10, 20}}
	for i := 0; i < events; i++ {
		ev := cdn.Event{Hour: i + 1, Added: []netaddr.Addr{netaddr.Addr(1000 + i%distinct)}}
		if i == 0 {
			ev.Removed = []netaddr.Addr{10}
		} else {
			ev.Removed = []netaddr.Addr{netaddr.Addr(1000 + (i-1)%distinct)}
		}
		tl.Events = append(tl.Events, ev)
	}
	return tl
}

// guardRouter covers every guardTimeline address with a default route plus
// one more-specific, so best-port answers and displacement checks both
// exercise real FIB lookups.
func guardRouter() *bgp.FIB {
	return fakeRouter(map[string]int{
		"0.0.0.0/0": 3,
		"0.0.0.0/8": 5,
	})
}

func TestAllocGuard(t *testing.T) { allocguard.Check(t, allocGuardHarness()) }

// allocGuardHarness maps each //lint:zeroalloc symbol in this package to
// its measurement, consumed by TestAllocGuard. The fused
// replays allocate fixed per-call scratch, so their measurements are
// differential (replayAllocs); the Memo hit path after warm-up must be
// absolutely allocation-free.
func allocGuardHarness() map[string]func(t *testing.T) float64 {
	return map[string]func(t *testing.T) float64{
		"ContentUpdateStatsAllFused": func(t *testing.T) float64 {
			r := guardRouter()
			return replayAllocs(t, func(tls []cdn.Timeline) int {
				return ContentUpdateStatsAllFused(r, tls).BestPort.Events
			})
		},
		"ContentUpdateStatsPerRouter": func(t *testing.T) float64 {
			// Routers 0 and 2 are one FIB, so the set walks its index once
			// for both.
			g := guardRouter()
			fibs := []*bgp.FIB{g, fakeRouter(map[string]int{
				"0.0.0.0/0":   4,
				"0.0.0.0/22":  6,
				"0.0.3.0/24":  8,
				"0.0.0.16/28": 9,
				"0.0.0.0/30":  2,
			}), g}
			var allocs float64
			for _, routers := range []Routers{Each{fibs[0], fibs[1], fibs[2]}, bgp.NewFIBSet(fibs)} {
				allocs += replayAllocs(t, func(tls []cdn.Timeline) int {
					return ContentUpdateStatsPerRouter(routers, tls)[2].BestPort.Events
				})
			}
			return allocs
		},
		"AggregateabilityPerRouter": func(t *testing.T) float64 {
			// Doubling every name's addresses must cost no allocation: the
			// tables are sized by names and routers.
			fibs := []*bgp.FIB{guardRouter(), fakeRouter(map[string]int{"0.0.0.0/0": 4, "0.0.4.0/22": 6})}
			sets := func(perName int) map[cdn.Name][]netaddr.Addr {
				out := map[cdn.Name][]netaddr.Addr{}
				for i, n := range []cdn.Name{"", "com", "a.com", "b.a.com", "c.b.a.com", "org", "x.org"} {
					for j := 0; j < perName; j++ {
						out[n] = append(out[n], netaddr.Addr(1000*i+37*j))
					}
				}
				return out
			}
			small, large := sets(64), sets(128)
			var allocs float64
			for _, routers := range []Routers{Each{fibs[0], fibs[1]}, bgp.NewFIBSet(fibs)} {
				count := func(sets map[cdn.Name][]netaddr.Addr) float64 {
					return testing.AllocsPerRun(10, func() {
						if got := AggregateabilityPerRouter(routers, sets); len(got) != 2 {
							t.Fatalf("%d columns, want 2", len(got))
						}
					})
				}
				allocs += count(large) - count(small)
			}
			return allocs
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

// replayAllocs measures a fused replay, which reports the events it saw: a
// pool of eight long timelines against eight short ones, so the difference
// is what the replay allocates per event. It measures two pools of each
// length: one whose every event adds a fresh address, so the long pool's
// table holds 32 times the short one's addresses, and one rotating through
// eight. A second pass over a pool inside one call finds the scratch warm:
// it may cost what Timeline.Walk allocates for its own buffers and nothing
// on top.
func replayAllocs(t *testing.T, replay func([]cdn.Timeline) int) float64 {
	poolAllocs := func(tls []cdn.Timeline) float64 {
		return testing.AllocsPerRun(10, func() {
			if replay(tls) == 0 {
				t.Fatal("pooled replay saw no events")
			}
		})
	}
	var perEvent float64
	for _, shape := range []struct {
		name     string
		distinct func(events int) int
	}{
		{"fresh", func(events int) int { return events }},
		{"rotating", func(int) int { return 8 }},
	} {
		pool := func(events int) []cdn.Timeline {
			tls := make([]cdn.Timeline, 8)
			for i := range tls {
				tls[i] = guardTimeline(events, shape.distinct(events))
			}
			return tls
		}
		small, large := pool(16), pool(512)
		walkAllocs := testing.AllocsPerRun(10, func() {
			for i := range small {
				small[i].Walk(func(cdn.Event, []netaddr.Addr, []netaddr.Addr) {})
			}
		})
		twice := slices.Concat(small, small)
		if extra := poolAllocs(twice) - poolAllocs(small) - walkAllocs; extra != 0 {
			t.Errorf("%s addresses: second pass over the pool allocates %.1f times beyond Timeline.Walk's own", shape.name, extra)
		}
		d := poolAllocs(large) - poolAllocs(small)
		if d != 0 {
			t.Logf("%s addresses: long pool allocates %.1f times more than short", shape.name, d)
		}
		perEvent += d
	}
	return perEvent
}
