package gns

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"locind/internal/netaddr"
	"locind/internal/reliable"
)

// mapBackend is the least Backend a Server can front — one map, one version
// counter — for tests that are about the Server, the Transport or faultnet,
// not about a store. The production Backend is cluster.Store.
type mapBackend struct {
	mu   sync.Mutex
	ver  uint64
	recs map[string]Record
}

func newMapBackend() *mapBackend { return &mapBackend{recs: map[string]Record{}} }

func (b *mapBackend) Update(name string, addrs []netaddr.Addr) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ver++
	b.recs[name] = Record{Name: name, Addrs: append([]netaddr.Addr(nil), addrs...), Version: b.ver}
	return b.ver, nil
}

func (b *mapBackend) Lookup(name string) (Record, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rec, ok := b.recs[name]
	if !ok {
		return Record{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return rec, nil
}

// serveLoopback fronts svc with an unobserved Server on a loopback UDP
// socket, closed when the test ends.
func serveLoopback(t *testing.T, svc Backend) *Server {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServePacketConnObserved(context.Background(), svc, pc, nil)
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck // nothing left to lose once the test is over
	return srv
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.conn.LocalAddr().String() }

// wireClient is the least caller a Server can have — one Transport under
// one reliable.Policy, counting attempts — for the same tests. The
// production client is cluster.Client.
type wireClient struct {
	addr      string
	policy    reliable.Policy
	transport Transport
	attempts  int64
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

func (c *wireClient) update(ctx context.Context, name string, addrs []netaddr.Addr) (uint64, error) {
	req := Request{Op: "update", Name: name}
	for _, a := range addrs {
		req.Addrs = append(req.Addrs, a.String())
	}
	resp, err := c.exchange(ctx, req)
	return resp.Version, err
}

func (c *wireClient) lookup(ctx context.Context, name string) (Record, error) {
	resp, err := c.exchange(ctx, Request{Op: "lookup", Name: name})
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
