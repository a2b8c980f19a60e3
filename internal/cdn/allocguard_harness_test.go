package cdn

import (
	"fmt"
	"testing"

	"locind/internal/lint/allocguard"
	"locind/internal/netaddr"
)

// walkAllocs measures one full replay of tl.
func walkAllocs(t *testing.T, tl *Timeline) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() {
		n := 0
		tl.Walk(func(_ Event, _, _ []netaddr.Addr) { n++ })
		if n != len(tl.Events) {
			t.Fatalf("walk visited %d of %d events", n, len(tl.Events))
		}
	})
}

// guardTimelines builds count synthetic timelines of the given length with
// distinct site names (CompleteTable keys on them).
func guardTimelines(count, events int) []Timeline {
	tls := make([]Timeline, count)
	for i := range tls {
		tls[i] = syntheticTimeline(events)
		tls[i].Site.Name = Name(fmt.Sprintf("site-%d.guard.test", i))
	}
	return tls
}

func TestAllocGuard(t *testing.T) { allocguard.Check(t, allocGuardHarness()) }

// allocGuardHarness maps each //lint:zeroalloc symbol in this package to
// its measurement, consumed by TestAllocGuard. The replay paths
// legitimately allocate fixed warm-up state (walker buffers, the retained
// clones the API contracts promise), so each measurement is differential:
// replay a large and a small workload and return the allocation growth —
// zero growth pins the per-event cost at zero.
func allocGuardHarness() map[string]func(t *testing.T) float64 {
	return map[string]func(t *testing.T) float64{
		"Timeline.Walk": func(t *testing.T) float64 {
			small, large := syntheticTimeline(16), syntheticTimeline(512)
			return walkAllocs(t, &large) - walkAllocs(t, &small)
		},
		"Timeline.SetAt": func(t *testing.T) float64 {
			small, large := syntheticTimeline(16), syntheticTimeline(512)
			setAtAllocs := func(tl *Timeline) float64 {
				return testing.AllocsPerRun(10, func() {
					if got := tl.SetAt(tl.Hours); len(got) == 0 {
						t.Fatal("SetAt returned an empty set")
					}
				})
			}
			return setAtAllocs(&large) - setAtAllocs(&small)
		},
		"CompleteTable": func(t *testing.T) float64 {
			small, large := guardTimelines(8, 16), guardTimelines(8, 512)
			tableAllocs := func(tls []Timeline) float64 {
				return testing.AllocsPerRun(10, func() {
					if tab := CompleteTable(tls, tls[0].Hours); len(tab) != len(tls) {
						t.Fatalf("table has %d entries, want %d", len(tab), len(tls))
					}
				})
			}
			return tableAllocs(large) - tableAllocs(small)
		},
	}
}
