package obs

import (
	"os"
	"strconv"
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
//
// With tracing off, the span calls are nil-receiver no-ops, and their
// variadic labels must stay on the caller's stack. A span that stored the
// caller's slice instead of a copy would move every call site's labels to
// the heap, traced or not. The labels are built from a runtime value, as
// the request paths build theirs.
func allocGuardHarness() map[string]func(t *testing.T) float64 {
	var tr *Tracer
	var parent *Span
	shard := strconv.Itoa(len(os.Args) % 10)
	tc := TraceContext{TraceID: 1, SpanID: 2}
	return map[string]func(t *testing.T) float64{
		"Tracer.Start": func(t *testing.T) float64 {
			return testing.AllocsPerRun(100, func() {
				tr.Start("gnsc-update", "name", shard, "shard", shard).End()
			})
		},
		"Tracer.StartRemote": func(t *testing.T) float64 {
			return testing.AllocsPerRun(100, func() {
				tr.StartRemote(tc, "gns-serve", "op", shard, "name", shard).End()
				tr.StartRemote(TraceContext{}, "gns-serve", "op", shard, "name", shard).End()
			})
		},
		"Span.Child": func(t *testing.T) float64 {
			return testing.AllocsPerRun(100, func() {
				parent.Child("replica", "shard", shard, "r", shard).End()
			})
		},
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
