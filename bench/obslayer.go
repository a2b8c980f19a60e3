package main

import (
	"time"

	"locind/internal/obs"
)

// obsLayers puts the cost of observability on the books: what one counter
// increment, histogram observation, span and sampler tick cost. None of the
// end-to-end numbers should move with these — obs is off there — which is
// exactly the claim they let a reader check.
func obsLayers(calls int, out map[string]metric) {
	n := 50 * calls
	reg := obs.NewRegistry()
	ctr := reg.Counter("bench_counter_total", "bench probe")
	out["obs.counter_inc_ns"] = metric{nsPerCall(n, func() {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	}), "ns"}
	hist := reg.Histogram("bench_histogram_seconds", "bench probe", []float64{0.001, 0.01, 0.1, 1, 10})
	out["obs.histogram_observe_ns"] = metric{nsPerCall(n, func() {
		for i := 0; i < n; i++ {
			hist.Observe(float64(i%1000) / 100)
		}
	}), "ns"}
	tr := obs.NewTracer(1, 0)
	begin := time.Now()
	tr.SetNow(func() time.Duration { return time.Since(begin) })
	out["obs.span_ns"] = metric{nsPerCall(n, func() {
		for i := 0; i < n; i++ {
			tr.Start("bench-probe").End()
		}
	}), "ns"}
	smp := obs.NewSampler(reg, 0)
	smp.Tick() // the first tick builds the rings; later ones are the steady state
	out["obs.sampler_tick_ns"] = metric{nsPerCall(calls, func() {
		for i := 0; i < calls; i++ {
			smp.Tick()
		}
	}), "ns"}
}
