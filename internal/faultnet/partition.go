package faultnet

import (
	"net"
	"sync/atomic"
	"time"
)

// Partition is the netsplit/heal primitive: a set of directed address-pair
// cuts that PartitionedConn wrappers consult on every datagram. It models
// the three whole-node failure shapes chaos tests need on top of the
// probabilistic per-packet faults:
//
//   - crash: Isolate(addr) cuts all traffic to and from addr — the node is
//     gone as far as the network can tell (requests time out rather than
//     erroring, exactly like a dead host);
//   - netsplit: Split(a, b) cuts every edge between the two groups while
//     traffic within each group keeps flowing;
//   - asymmetric loss: CutOneWay(from, to) kills one direction only, the
//     classic grey failure where requests arrive but responses vanish.
//
// Cuts are unconditional, so they draw no random variates: imposing or
// healing a partition never shifts the Env's seeded fault stream, and a
// chaos schedule (partition at operation k, heal at operation m) replays
// byte-for-byte. Control-plane events (isolate/split/cut/heal) are recorded
// in the Env trace; the per-datagram swallows are counted in Stats and
// metrics but not traced, so a million lookups into a dead shard cannot
// grow the trace without bound.
type Partition struct {
	env *Env
	// isolated and cut are guarded by env.mu: partition checks interleave
	// with fault draws under one lock, keeping the trace order coherent.
	isolated map[string]bool
	cut      map[[2]string]bool // directed (from, to) edges
	// live is len(isolated)+len(cut), republished under env.mu by every
	// change to either. While it reads zero nothing can be blocked, and a
	// wrapper forwards the datagram without rendering its addresses or
	// taking env.mu: the common case, a healthy cluster, pays one atomic
	// load per datagram.
	live atomic.Int64
}

// recount republishes live. Callers hold env.mu.
func (p *Partition) recount() { p.live.Store(int64(len(p.isolated) + len(p.cut))) }

// NewPartition creates a partition controller in e's fault domain. All
// wrappers sharing it see cuts take effect atomically.
func (e *Env) NewPartition() *Partition {
	return &Partition{
		env:      e,
		isolated: map[string]bool{},
		cut:      map[[2]string]bool{},
	}
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
	p.recount()
}

// Split cuts every edge between group a and group b, both directions.
// Traffic within each group is untouched.
func (p *Partition) Split(a, b []string) {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			p.cut[[2]string{x, y}] = true
			p.cut[[2]string{y, x}] = true
		}
	}
	p.recount()
	p.env.record("partition split %d|%d nodes", len(a), len(b))
}

// CutOneWay kills the from→to direction only — requests still arrive but
// the answers vanish (or vice versa), the asymmetric-loss grey failure.
func (p *Partition) CutOneWay(from, to string) {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	p.cut[[2]string{from, to}] = true
	p.recount()
	p.env.record("partition cut %s->%s", from, to)
}

// Heal removes the isolation of each addr and every cut edge touching it.
// Idempotent; healing an unpartitioned addr records nothing.
func (p *Partition) Heal(addrs ...string) {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	for _, a := range addrs {
		healed := false
		if p.isolated[a] {
			delete(p.isolated, a)
			healed = true
		}
		for e := range p.cut {
			if e[0] == a || e[1] == a {
				delete(p.cut, e)
				healed = true
			}
		}
		if healed {
			p.env.record("partition heal %s", a)
		}
	}
	p.recount()
}

// HealAll removes every cut and isolation at once — the partition heals.
func (p *Partition) HealAll() {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	if len(p.isolated) == 0 && len(p.cut) == 0 {
		return
	}
	p.isolated = map[string]bool{}
	p.cut = map[[2]string]bool{}
	p.recount()
	p.env.record("partition heal all")
}

// Blocked reports whether a datagram from from to to is currently cut.
func (p *Partition) Blocked(from, to string) bool {
	p.env.mu.Lock()
	defer p.env.mu.Unlock()
	return p.blockedLocked(from, to)
}

func (p *Partition) blockedLocked(from, to string) bool {
	return p.isolated[from] || p.isolated[to] || p.cut[[2]string{from, to}]
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
