// Package simobs is the determinism golden fixture for instrumented
// simulation code: counting into obs handles and opening deterministic
// spans is clean, while reading the wall clock directly in the same
// package still fires — instrumentation must come from injected clocks,
// never from time.Now.
package simobs

import (
	"time"

	"locind/internal/obs"
)

// Step advances one simulation tick, counting into nil-safe obs handles
// and tracing the step. No clock: the analyzer stays quiet.
func Step(events *obs.Counter, tr *obs.Tracer, n int) int {
	id := tr.Start("step")
	for i := 0; i < n; i++ {
		events.Inc()
	}
	return n + int(id%2)
}

// Stamp is the contrast line: the same package reaching for the host
// clock is exactly what the obs design forbids.
func Stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now reads the wall clock in a simulation package`
}
