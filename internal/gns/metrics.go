package gns

import (
	"time"

	"locind/internal/obs"
)

// ServerMetrics instruments the UDP serve loop. All handles are nil-safe,
// so a Server without metrics (the default) records nothing and pays only
// a pointer check per datagram.
type ServerMetrics struct {
	// Requests counts every datagram handled, including rejects.
	Requests *obs.Counter
	// Lookups and Updates count the dispatched reads ("vget") and writes
	// ("vput").
	Lookups *obs.Counter
	Updates *obs.Counter
	// Errors counts requests answered with a structured error.
	Errors *obs.Counter
	// Inflight tracks requests currently being handled.
	Inflight *obs.Gauge
	// Latency is the handling latency distribution, in seconds.
	Latency *obs.Histogram
	// Clock supplies the timestamps for Latency. It is injected by the
	// binaries — internal packages take no wall-clock reads, so the
	// determinism analyzer stays clean. Nil leaves Latency unobserved and
	// the serve path clock-free.
	Clock func() time.Duration
	// Tracer, when non-nil, records one serve-side span per dispatched
	// request, parented onto the originating client span via the request's
	// Trace field. Nil traces nothing.
	Tracer *obs.Tracer
}

// NewServerMetrics registers the gns server families on reg. A nil
// registry yields all-nil handles.
func NewServerMetrics(reg *obs.Registry) *ServerMetrics {
	return &ServerMetrics{
		Requests: reg.Counter("locind_gns_requests_total", "datagrams handled"),
		Lookups:  reg.Counter("locind_gns_lookups_total", "lookup requests dispatched"),
		Updates:  reg.Counter("locind_gns_updates_total", "update requests dispatched"),
		Errors:   reg.Counter("locind_gns_errors_total", "requests answered with an error"),
		Inflight: reg.Gauge("locind_gns_inflight_requests", "requests currently being handled"),
		Latency:  reg.Histogram("locind_gns_request_seconds", "request handling latency in seconds", obs.DefBuckets),
	}
}

// noServerMetrics backs servers without metrics so the hot path never
// branches per handle; its nil fields make every record a no-op.
var noServerMetrics = &ServerMetrics{}

func (s *Server) m() *ServerMetrics {
	if s.metrics == nil {
		return noServerMetrics
	}
	return s.metrics
}
