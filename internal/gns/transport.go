package gns

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"locind/internal/reliable"
)

// MaxIdlePerAddr is how many idle connected sockets a Transport keeps per
// server address. A sequential caller needs one; the cap covers a handful
// of goroutines sharing a client, and anything beyond it is closed on
// return rather than kept.
const MaxIdlePerAddr = 4

// datagramBufs holds the maxDatagram+1-byte buffers an attempt encodes its
// request into and then reads the reply into. Shared by every Transport
// and emptied by the collector, so an idle client retains none of them.
var datagramBufs = sync.Pool{New: func() any {
	b := make([]byte, maxDatagram+1)
	return &b
}}

// Transport is the client side of the datagram exchange: it keeps idle
// connected UDP sockets per server address, so a request costs a write and
// a read, not a dial and a close as well.
//
// A socket is reused only after a clean round trip on it: a request
// written and the reply to that very request read. Any timeout, I/O error
// or undecodable reply closes the socket, because a late reply may still
// arrive on it. Even so a clean socket can hold a stale datagram (a
// duplicated reply lands after the first copy was accepted), so every
// attempt carries a fresh transaction ID, the server echoes it, and a reply
// with any other ID is discarded and the read repeated inside the same
// attempt and deadline. The ID is a counter: a demultiplexing guard against
// the network's own duplicates and delays, not a defence against a forger.
//
// The zero value is ready to use. Close releases the idle sockets; a
// closed Transport fails every exchange.
type Transport struct {
	lastID atomic.Uint64

	mu     sync.Mutex
	idle   map[string][]net.Conn // per server address, most recently used last
	closed bool
}

// Exchange performs one request/response exchange with the server at addr
// under policy p: each attempt takes a connected socket (an idle one, else
// a fresh dial), writes the request, and waits for the matching reply
// within the attempt's deadline. A structured error response is converted
// into its sentinel error (wire.go); permanent codes (not-found,
// bad-request) come back wrapped in reliable.Permanent so the retry loop
// stops immediately instead of burning its budget re-sending a request the
// server has already authoritatively rejected. The attempt count made is
// returned alongside.
//
// p.PerAttempt is applied here as the socket deadline, not by p.Do: each
// attempt's deadline is the earlier of ctx's and PerAttempt from the
// attempt's start, and it bounds the dial, the write and every read, with
// no context or timer per attempt.
//
// Exchange is the transport leg of the cluster client; req.Trace should
// already carry the caller's span context.
func (t *Transport) Exchange(ctx context.Context, addr string, req Request, p reliable.Policy) (Response, int, error) {
	perAttempt := p.PerAttempt
	p.PerAttempt = 0
	var resp Response
	attempts, err := p.Do(ctx, func(ctx context.Context) error {
		r, err := t.attempt(ctx, attemptDeadline(ctx, perAttempt), addr, &req)
		if err != nil {
			return err
		}
		if !r.OK {
			wireErr := r.AsError()
			if r.Code.Permanent() {
				return reliable.Permanent(wireErr)
			}
			// Transient server-side failures (quorum loss, internal
			// errors) re-enter the retry loop: replicas recover.
			return wireErr
		}
		resp = r
		return nil
	})
	if err != nil {
		return Response{}, attempts, err
	}
	return resp, attempts, nil
}

// attemptDeadline is the deadline of an attempt starting now: ctx's, or
// perAttempt from now when that is earlier. Zero means no deadline.
func attemptDeadline(ctx context.Context, perAttempt time.Duration) time.Time {
	dl, _ := ctx.Deadline()
	if perAttempt > 0 {
		//lint:allow determinism a socket deadline is wall-clock by net.Conn's API, and the context.WithTimeout it replaces read the same clock
		if own := time.Now().Add(perAttempt); dl.IsZero() || own.Before(dl) {
			dl = own
		}
	}
	return dl
}

// Exchange is Transport.Exchange on a Transport of its own that lives for
// the one call: every attempt dials, and the socket is closed on return.
func Exchange(ctx context.Context, addr string, req Request, p reliable.Policy) (Response, int, error) {
	var t Transport
	defer t.Close()
	return t.Exchange(ctx, addr, req, p)
}

// attempt makes one round trip, bounded by dl (zero: unbounded), and
// decides the socket's fate by how it went.
func (t *Transport) attempt(ctx context.Context, dl time.Time, addr string, req *Request) (Response, error) {
	bp := datagramBufs.Get().(*[]byte)
	defer datagramBufs.Put(bp)
	req.ID = t.lastID.Add(1)
	out := appendRequest((*bp)[:0], req)
	if len(out) > maxDatagram {
		// The server would reject it unread; so would a retry.
		return Response{}, reliable.Permanent(fmt.Errorf("%w: request exceeds %d bytes", ErrBadRequest, maxDatagram))
	}
	conn, err := t.get(ctx, dl, addr)
	if err != nil {
		return Response{}, err
	}
	resp, err := t.roundTrip(conn, dl, out, *bp, req.ID)
	if err != nil {
		conn.Close() //nolint:errcheck // the attempt's own error is the one to report
		return Response{}, err
	}
	t.put(addr, conn)
	return resp, nil
}

// roundTrip writes out and reads into buf until the reply carrying id
// arrives or dl passes. out may alias buf: the request is on the wire
// before the first read overwrites it.
func (t *Transport) roundTrip(conn net.Conn, dl time.Time, out, buf []byte, id uint64) (Response, error) {
	// A zero dl clears whatever deadline the socket's previous attempt
	// left behind.
	if err := conn.SetDeadline(dl); err != nil {
		return Response{}, err
	}
	if _, err := conn.Write(out); err != nil {
		return Response{}, err
	}
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return Response{}, err
		}
		var resp Response
		if err := decodeResponse(buf[:n], &resp); err != nil {
			return Response{}, fmt.Errorf("gns: undecodable reply: %w", err)
		}
		if resp.ID == id {
			return resp, nil
		}
		// Another attempt's reply, late or duplicated: not ours to act on.
	}
}

// get returns a connected socket to addr: the most recently used idle one,
// else a fresh dial bounded by ctx and dl.
func (t *Transport) get(ctx context.Context, dl time.Time, addr string) (net.Conn, error) {
	t.mu.Lock()
	closed := t.closed
	var conn net.Conn
	if socks := t.idle[addr]; len(socks) > 0 {
		conn, t.idle[addr] = socks[len(socks)-1], socks[:len(socks)-1]
	}
	t.mu.Unlock()
	switch {
	case closed:
		return nil, reliable.Permanent(fmt.Errorf("gns: transport: %w", net.ErrClosed))
	case conn != nil:
		return conn, nil
	}
	d := net.Dialer{Deadline: dl}
	return d.DialContext(ctx, "udp", addr)
}

// put returns a socket to the idle set after a clean round trip, or closes
// it when the set is full or the Transport has been closed meanwhile.
func (t *Transport) put(addr string, conn net.Conn) {
	t.mu.Lock()
	keep := !t.closed && len(t.idle[addr]) < MaxIdlePerAddr
	if keep {
		if t.idle == nil {
			t.idle = make(map[string][]net.Conn)
		}
		t.idle[addr] = append(t.idle[addr], conn)
	}
	t.mu.Unlock()
	if !keep {
		conn.Close() //nolint:errcheck // surplus socket; nothing was in flight on it
	}
}

// IdleSockets reports how many idle sockets the Transport holds for addr.
//
//lint:allow reach cluster's TestClusterConcurrentUpdatesRespectIdleCap (cluster_test.go) holds the client's pool to MaxIdlePerAddr through it
func (t *Transport) IdleSockets(addr string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.idle[addr])
}

// Close closes every idle socket and fails all later exchanges. A socket
// out on an attempt is closed when that attempt returns it. Closing twice
// is harmless.
func (t *Transport) Close() {
	t.mu.Lock()
	idle := t.idle
	t.idle, t.closed = nil, true
	t.mu.Unlock()
	for _, socks := range idle {
		for _, conn := range socks {
			conn.Close() //nolint:errcheck // idle: nothing in flight to lose
		}
	}
}
