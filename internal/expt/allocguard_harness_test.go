package expt

import (
	"testing"

	"locind/internal/lint/allocguard"
)

func TestAllocGuard(t *testing.T) { allocguard.Check(t, allocGuardHarness()) }

// allocGuardHarness maps each //lint:zeroalloc symbol in this package to
// its measurement, consumed by TestAllocGuard.
func allocGuardHarness() map[string]func(t *testing.T) float64 {
	return map[string]func(t *testing.T) float64{
		"World.TimelinesByClass": func(t *testing.T) float64 {
			w := quickWorld(t)
			w.Timelines() // generation allocates; the split must not
			return testing.AllocsPerRun(100, func() {
				if pop, unpop := w.TimelinesByClass(); len(pop) == 0 || len(unpop) == 0 {
					t.Fatal("empty class split")
				}
			})
		},
	}
}
