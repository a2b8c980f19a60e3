package faultnet

import (
	"net"
	"sync/atomic"
)

// Partition is the crash/heal primitive: a set of isolated addresses that
// the PacketConn wrappers holding it consult on every datagram, on top of
// the probabilistic per-packet faults. Isolate(addr) cuts all traffic to and
// from addr — the node is gone as far as the network can tell (requests time
// out rather than erroring, exactly like a dead host) — and HealAll brings
// every isolated node back.
//
// Cuts are unconditional, so they draw no random variates: isolating,
// healing and swallowing consume none of the Env's seeded fault stream, and
// a chaos schedule (partition at operation k, heal at operation m) replays
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

// WrapPacketConn wraps pc in p's fault domain with cuts only, no
// probabilistic faults.
func (p *Partition) WrapPacketConn(pc net.PacketConn) *PacketConn {
	return WrapPacketConn(pc, p.env, PacketFaults{}, PacketFaults{}, p)
}
