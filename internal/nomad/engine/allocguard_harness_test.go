package engine

import (
	"context"
	"math/rand"
	"testing"

	"locind/internal/lint/allocguard"
)

// guardEngine builds an engine over a small generated fleet — the day-refill
// path the soak and the benchmark run — with no uploader: every sealed batch
// queues until backpressure evicts it, so a full Reset+Run cycle exercises
// the event step, the heap, day generation, sealing, compaction, and
// eviction — the whole steady-state hot path — while the allocating drain
// path stays off (a nil Uploader uploads nothing by contract).
func guardEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := New(Config{
		Fleet:            testFleet(t, 3, 5),
		Devices:          12,
		Days:             3,
		MaxPending:       4,
		MaxQueuedBatches: 3,
		FlushAtEnd:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestAllocGuard(t *testing.T) { allocguard.Check(t, allocGuardHarness()) }

// allocGuardHarness maps each //lint:zeroalloc symbol in this package to
// its measurement, consumed by TestAllocGuard. AllocsPerRun's documented
// warm-up invocation grows every buffer to steady-state capacity before
// anything is measured, so each measurement pins the warm path at an
// absolute zero.
func allocGuardHarness() map[string]func(t *testing.T) float64 {
	return map[string]func(t *testing.T) float64{
		"evHeap.push": func(t *testing.T) float64 {
			rng := rand.New(rand.NewSource(1))
			var h evHeap
			return testing.AllocsPerRun(10, func() {
				for i := 0; i < 256; i++ {
					h.push(event{at: float64(rng.Intn(100)), dev: int32(i)})
				}
				h.ev = h.ev[:0]
			})
		},
		"evHeap.pop": func(t *testing.T) float64 {
			rng := rand.New(rand.NewSource(2))
			var h evHeap
			return testing.AllocsPerRun(10, func() {
				for i := 0; i < 256; i++ {
					h.push(event{at: float64(rng.Intn(100)), dev: int32(i)})
				}
				last := h.pop()
				for h.len() > 0 {
					ev := h.pop()
					if ev.less(last) {
						t.Fatal("heap popped out of order")
					}
					last = ev
				}
			})
		},
		"Engine.stepVisit": func(t *testing.T) float64 {
			eng := guardEngine(t)
			ctx := context.Background()
			return testing.AllocsPerRun(5, func() {
				eng.Reset()
				if err := eng.Run(ctx); err != nil {
					t.Fatal(err)
				}
				if eng.Steps() == 0 {
					t.Fatal("engine processed no events")
				}
			})
		},
	}
}
