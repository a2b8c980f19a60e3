// Package obs is a fixture stub standing in for the real
// locind/internal/obs, proving the obs idiom itself is determinism-clean:
// metric handles read no clock, and span durations come only from an
// injected clock.
package obs

import "time"

// Counter mimics the nil-safe metric handle.
type Counter struct{ v int64 }

// Inc records one, a no-op on nil.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Tracer mimics the deterministic tracer: the only time source is the
// injected now func.
type Tracer struct {
	now func() time.Duration
}

// SetNow injects the clock; internal packages leave it nil.
func (t *Tracer) SetNow(now func() time.Duration) {
	if t != nil {
		t.now = now
	}
}

// Start opens a span; its ID depends only on seed and sequence, never on
// the clock.
func (t *Tracer) Start(name string) uint64 {
	if t == nil {
		return 0
	}
	return uint64(len(name)) + 1
}
