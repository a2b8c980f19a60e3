// Package obs is a fixture stub standing in for the real
// locind/internal/obs, so the golden fixtures can name its types at their
// real import path.
package obs

// Counter mimics the nil-safe metric handle.
type Counter struct{ v int64 }

// Inc records one, a no-op on nil.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// TraceContext mimics the propagated trace identity.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Encode renders the wire form carried in request framing.
func (tc TraceContext) Encode() string { return "tc" }
