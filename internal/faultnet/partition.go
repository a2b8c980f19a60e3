package faultnet

import (
	"net"
	"sync/atomic"
	"time"
)

// Partition is the crash/heal primitive: a set of isolated addresses that
// PartitionedConn wrappers consult on every datagram, on top of the
// probabilistic per-packet faults. Isolate(addr) cuts all traffic to and
// from addr — the node is gone as far as the network can tell (requests time
// out rather than erroring, exactly like a dead host) — and HealAll brings
// every isolated node back.
//
// Cuts are unconditional, so they draw no random variates: imposing or
// healing a partition never shifts the Env's seeded fault stream, and a
// chaos schedule (partition at operation k, heal at operation m) replays
// byte-for-byte. Control-plane events (isolate/heal) are recorded in the Env
// trace; the per-datagram swallows are counted in Stats and metrics but not
// traced, so a million lookups into a dead shard cannot grow the trace
// without bound.
type Partition struct {
	env *Env
	// isolated is guarded by env.mu: partition checks interleave with fault
	// draws under one lock, keeping the trace order coherent.
	isolated map[string]bool
	// live is len(isolated), republished under env.mu by every change to
	// it. While it reads zero nothing can be blocked, and a wrapper
	// forwards the datagram without rendering its addresses or taking
	// env.mu: the common case, a healthy cluster, pays one atomic load per
	// datagram.
	live atomic.Int64
}

// NewPartition creates a partition controller in e's fault domain. All
// wrappers sharing it see cuts take effect atomically.
func (e *Env) NewPartition() *Partition {
	return &Partition{env: e, isolated: map[string]bool{}}
}

// Isolate cuts all traffic to and from each addr — a node crash as seen
// from the network. Idempotent.
func (p *Partition) Isolate(addrs ...string) {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	for _, a := range addrs {
		p.isolated[a] = true
		p.env.record("partition isolate %s", a)
	}
	p.live.Store(int64(len(p.isolated)))
}

// HealAll removes every isolation at once — the partition heals.
func (p *Partition) HealAll() {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	if len(p.isolated) == 0 {
		return
	}
	p.isolated = map[string]bool{}
	p.live.Store(0)
	p.env.record("partition heal all")
}

// Blocked reports whether a datagram from from to to is currently cut.
func (p *Partition) Blocked(from, to string) bool {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	return p.isolated[from] || p.isolated[to]
}

// swallow counts one cut datagram. Stats only, no trace: see the type
// comment.
func (p *Partition) swallow() {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	p.env.stats.Partitioned++
	p.env.metrics.Partitioned.Inc()
}

// PartitionedConn is a net.PacketConn whose traffic respects a Partition.
// It composes with the probabilistic PacketConn wrapper in either order;
// wrapping the raw socket first keeps cut datagrams out of the fault
// stream entirely.
type PartitionedConn struct {
	inner net.PacketConn
	part  *Partition
	self  string
}

// WrapPacketConn wraps pc so datagrams crossing a cut edge are silently
// swallowed (writes still report success, like packets lost on a dead
// link). The conn's own identity is its LocalAddr at wrap time.
func (p *Partition) WrapPacketConn(pc net.PacketConn) *PartitionedConn {
	return &PartitionedConn{inner: pc, part: p, self: pc.LocalAddr().String()}
}

// WriteTo swallows datagrams into a cut, else forwards.
func (c *PartitionedConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	if c.part.live.Load() != 0 && c.part.Blocked(c.self, addr.String()) {
		c.part.swallow()
		return len(b), nil
	}
	return c.inner.WriteTo(b, addr)
}

// ReadFrom drops datagrams that arrive across a cut (the peer's write
// predated the cut, or the peer is outside the partition domain) and keeps
// reading.
func (c *PartitionedConn) ReadFrom(b []byte) (int, net.Addr, error) {
	for {
		n, addr, err := c.inner.ReadFrom(b)
		if err != nil {
			return n, addr, err
		}
		if addr != nil && c.part.live.Load() != 0 && c.part.Blocked(addr.String(), c.self) {
			c.part.swallow()
			continue
		}
		return n, addr, nil
	}
}

// Close closes the inner conn.
func (c *PartitionedConn) Close() error { return c.inner.Close() }

// LocalAddr returns the inner conn's address.
func (c *PartitionedConn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// SetDeadline forwards to the inner conn.
func (c *PartitionedConn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline forwards to the inner conn.
func (c *PartitionedConn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline forwards to the inner conn.
func (c *PartitionedConn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
