package gns

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"locind/internal/obs"
)

// OpHandler is what a Server fronts: in production one cluster replica's
// Store (package cluster), whose replication ops "vget" and "vput" are the
// whole protocol; in this package's tests a map. handled=false marks an op
// the handler does not know, which the Server answers CodeBadRequest.
type OpHandler interface {
	HandleOp(req Request) (resp Response, handled bool)
}

// PacketConn is the datagram socket a Server reads requests from and
// answers on. Peers move as netip.AddrPort, so a request costs no boxed
// address. *net.UDPConn and *faultnet.PacketConn both satisfy it.
type PacketConn interface {
	ReadFromUDPAddrPort(p []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(p []byte, addr netip.AddrPort) (int, error)
	Close() error
}

// Server exposes an OpHandler over UDP, one datagram per request/response —
// the same interaction pattern as DNS. The transport is any PacketConn, so
// chaos tests interpose a faultnet wrapper.
type Server struct {
	svc     OpHandler
	conn    PacketConn
	done    chan struct{}
	metrics *ServerMetrics

	closeOnce sync.Once
	closeErr  error
}

// ServePacketConnObserved serves svc on an already-bound packet transport —
// the seam where fault-injecting wrappers plug in — with serve-loop metrics
// attached; m may be nil for an unobserved server. It returns at once;
// handling proceeds in the background until Close is called or ctx is
// cancelled, which shuts the server down as if Close had been called.
func ServePacketConnObserved(ctx context.Context, svc OpHandler, conn PacketConn, m *ServerMetrics) *Server {
	s := &Server{svc: svc, conn: conn, done: make(chan struct{}), metrics: m}
	go s.loop()
	go func() {
		select {
		case <-ctx.Done():
			s.close()
		case <-s.done:
		}
	}()
	return s
}

// close tears the transport down exactly once; concurrent Close and ctx
// cancellation must not race a second conn.Close error over the first.
func (s *Server) close() error {
	s.closeOnce.Do(func() { s.closeErr = s.conn.Close() })
	return s.closeErr
}

// Close shuts the server down and waits for the serve loop to exit.
func (s *Server) Close() error {
	err := s.close()
	<-s.done
	return err
}

func (s *Server) loop() {
	defer close(s.done)
	// One byte of headroom: a read that fills past maxDatagram means the
	// peer sent an oversized (or kernel-truncated) request, which gets a
	// structured rejection instead of a silently mangled parse.
	buf := make([]byte, maxDatagram+1)
	var out []byte // reply encoding, reused from one datagram to the next
	m := s.m()
	for {
		n, peer, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed
		}
		m.Requests.Inc()
		m.Inflight.Add(1)
		var start time.Duration
		if m.Clock != nil {
			start = m.Clock()
		}
		var resp Response
		if n > maxDatagram {
			resp = errorResponse(fmt.Errorf("%w: datagram exceeds %d bytes", ErrBadRequest, maxDatagram))
		} else {
			resp = s.handle(buf[:n])
		}
		if resp.Err != "" {
			m.Errors.Inc()
		}
		if m.Clock != nil {
			m.Latency.Observe((m.Clock() - start).Seconds())
		}
		m.Inflight.Add(-1)
		out = appendResponse(out[:0], &resp)
		s.conn.WriteToUDPAddrPort(out, peer) //nolint:errcheck // lost replies look like drops; the client retries
	}
}

// handle dispatches one request. A panic in request handling is converted
// into a structured error response so one malformed request can never kill
// the serve loop. Every reply — success, error or converted panic — echoes
// the request's transaction ID, whenever enough of the datagram arrived to
// hold one.
func (s *Server) handle(raw []byte) (resp Response) {
	var req Request
	defer func() {
		if r := recover(); r != nil {
			resp = errorResponse(fmt.Errorf("%w: %v", ErrInternal, r))
		}
		resp.ID = req.ID
	}()
	if err := decodeRequest(raw, &req); err != nil {
		return errorResponse(fmt.Errorf("%w: %v", ErrBadRequest, err))
	}
	// Continue the client's trace: the serve span parents onto the client
	// request span named in the wire context (a fresh root when absent or
	// mangled — propagation is best-effort, never a request failure).
	tc, _ := obs.ParseTraceContext(req.Trace)
	span := s.m().Tracer.StartRemote(tc, "gns-serve", "op", req.Op, "name", req.Name)
	defer span.End()
	// A replica serves reads and writes as its replication ops, so those
	// count as the lookups and updates they are.
	switch req.Op {
	case "vget":
		s.m().Lookups.Inc()
	case "vput":
		s.m().Updates.Inc()
	}
	if resp, handled := s.svc.HandleOp(req); handled {
		return resp
	}
	return errorResponse(fmt.Errorf("%w: unknown op %q", ErrBadRequest, req.Op))
}
