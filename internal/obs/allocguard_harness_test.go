package obs

import (
	"testing"

	"locind/internal/lint/allocguard"
)

func TestAllocGuard(t *testing.T) { allocguard.Check(t, allocGuardHarness()) }

// allocGuardHarness maps each //lint:zeroalloc symbol in this package to
// its measurement, consumed by TestAllocGuard. AllocsPerRun's documented
// warm-up invocation runs the first Tick — the cold sync() that builds
// sources and rings — before anything is measured, so the measurement pins
// the warm per-tick snapshot path (atomic loads, quantile interpolation,
// ring pushes) at an absolute zero.
func allocGuardHarness() map[string]func(t *testing.T) float64 {
	return map[string]func(t *testing.T) float64{
		"Sampler.snapshot": func(t *testing.T) float64 {
			reg := NewRegistry()
			c := reg.Counter("guard_ops_total", "ops")
			g := reg.Gauge("guard_queue_entries", "queue depth", "shard", "0")
			h := reg.Histogram("guard_latency_seconds", "latency", nil)
			s := NewSampler(reg, 64)
			var i int64
			return testing.AllocsPerRun(10, func() {
				// Enough ticks per run to wrap the 64-sample rings: the
				// steady state being guarded includes ring wraparound and
				// the histogram's five derived series.
				for k := 0; k < 96; k++ {
					i++
					c.Add(3)
					g.Set(i % 17)
					h.Observe(float64(i%9) / 100)
					s.Tick()
				}
				if s.Ticks() == 0 {
					t.Fatal("sampler never ticked")
				}
			})
		},
	}
}
