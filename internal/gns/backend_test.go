package gns

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"locind/internal/netaddr"
	"locind/internal/reliable"
)

// mapBackend is the least OpHandler a Server can front — one map, one
// version counter — for tests that are about the Server, the Transport or
// faultnet, not about a store. It speaks a replica's two ops, but keeps the
// version vector as an opaque string (package gns cannot read
// cluster.VV): a vput always installs, and a vget hands back what the last
// vput of the name stored. The production OpHandler is cluster.Store.
type mapBackend struct {
	mu   sync.Mutex
	ver  uint64
	recs map[string]Response // the stored record, in the form a vget answers
}

func newMapBackend() *mapBackend { return &mapBackend{recs: map[string]Response{}} }

func (b *mapBackend) HandleOp(req Request) (Response, bool) {
	switch req.Op {
	case "vput":
		for _, sa := range req.Addrs {
			if _, err := netaddr.ParseAddr(sa); err != nil {
				return errorResponse(fmt.Errorf("%w: bad address: %v", ErrBadRequest, err)), true
			}
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		b.ver++
		rec := Response{OK: true, Name: req.Name, Addrs: append([]string(nil), req.Addrs...), Version: b.ver, VV: req.VV}
		b.recs[req.Name] = rec
		return rec, true
	case "vget":
		b.mu.Lock()
		defer b.mu.Unlock()
		rec, ok := b.recs[req.Name]
		if !ok {
			return errorResponse(fmt.Errorf("%w: %q", ErrNotFound, req.Name)), true
		}
		return rec, true
	}
	return Response{}, false
}

// put stores name's binding as a vput would, returning its version.
func (b *mapBackend) put(name string, addrs ...string) uint64 {
	resp, _ := b.HandleOp(Request{Op: "vput", Name: name, Addrs: addrs, VV: "1:1"})
	return resp.Version
}

// serveLoopback fronts svc with an unobserved Server on a loopback UDP
// socket, closed when the test ends.
func serveLoopback(t *testing.T, svc OpHandler) *Server {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServePacketConnObserved(context.Background(), svc, pc.(*net.UDPConn), nil)
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck // nothing left to lose once the test is over
	return srv
}

// Addr returns the bound address. Every test server's socket has one, a
// *net.UDPConn or a faultnet wrapper of it; the serve loop never asks.
func (s *Server) Addr() string {
	return s.conn.(interface{ LocalAddr() net.Addr }).LocalAddr().String()
}

// wireClient is the least caller a Server can have — one Transport under
// one reliable.Policy, counting attempts — for the same tests. The
// production client is cluster.Client.
type wireClient struct {
	addr      string
	policy    reliable.Policy
	transport Transport
	attempts  int64
	puts      int
}

// newWireClient retries a failed exchange three times: 500ms per attempt,
// exponential backoff from 50ms capped at 1s.
func newWireClient(addr string) *wireClient {
	return &wireClient{addr: addr, policy: reliable.Policy{
		MaxAttempts: 4,
		PerAttempt:  500 * time.Millisecond,
		Backoff:     reliable.Backoff{Base: 50 * time.Millisecond, Max: time.Second},
	}}
}

func (c *wireClient) exchange(ctx context.Context, req Request) (Response, error) {
	resp, attempts, err := c.transport.Exchange(ctx, c.addr, req, c.policy)
	c.attempts += int64(attempts)
	return resp, err
}

// put writes name's binding with a vput, stamping the version vector a
// lone writer with origin 1 would: one more write each time.
func (c *wireClient) put(ctx context.Context, name string, addrs []netaddr.Addr) (uint64, error) {
	c.puts++
	req := Request{Op: "vput", Name: name, VV: "1:" + strconv.Itoa(c.puts)}
	for _, a := range addrs {
		req.Addrs = append(req.Addrs, a.String())
	}
	resp, err := c.exchange(ctx, req)
	return resp.Version, err
}

// get reads name's binding with a vget.
func (c *wireClient) get(ctx context.Context, name string) (Record, error) {
	resp, err := c.exchange(ctx, Request{Op: "vget", Name: name})
	if err != nil {
		return Record{}, err
	}
	rec := Record{Name: resp.Name, Version: resp.Version}
	for _, sa := range resp.Addrs {
		a, err := netaddr.ParseAddr(sa)
		if err != nil {
			return Record{}, err
		}
		rec.Addrs = append(rec.Addrs, a)
	}
	return rec, nil
}
