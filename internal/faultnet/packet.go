package faultnet

import (
	"net"
	"sync"
	"time"
)

// PacketFaults configures one direction of datagram fault injection. All
// rates are probabilities in [0, 1]; the zero value injects nothing.
type PacketFaults struct {
	// Drop discards the datagram (the sender still sees success, exactly
	// like UDP on a lossy path).
	Drop float64
	// Dup delivers the datagram twice back-to-back.
	Dup float64
	// Delay pauses delivery for a uniform duration in [0, DelayMax] via the
	// Env's sleep hook.
	Delay    float64
	DelayMax time.Duration
}

// enabled reports whether any fault can fire.
func (f PacketFaults) enabled() bool {
	return f.Drop > 0 || f.Dup > 0 || f.Delay > 0
}

// packetDecision is the per-datagram fate, drawn in one locked step.
type packetDecision struct {
	drop, dup bool
	delay     time.Duration
}

// decidePacket draws the datagram's fate. Five uniform variates are always
// consumed (plus one when a delay fires) so the random stream advances
// identically for every datagram under a given config — the determinism
// contract.
func (e *Env) decidePacket(f PacketFaults, dir string, n int) packetDecision {
	e.mu.Lock()
	defer e.mu.Unlock()
	var d packetDecision
	d.drop = e.rng.Float64() < f.Drop
	d.dup = e.rng.Float64() < f.Dup
	// Two variates no fault reads: they once drew reordering and
	// truncation, and every seeded chaos run (the gns chaos tests, the
	// gns-cluster soak's digests) replays the stream they shaped.
	e.rng.Float64()
	e.rng.Float64()
	if e.rng.Float64() < f.Delay && f.DelayMax > 0 {
		d.delay = time.Duration(e.rng.Int63n(int64(f.DelayMax) + 1))
	}
	if d.drop {
		e.stats.Dropped++
		e.metrics.Dropped.Inc()
		e.record("%s drop %dB", dir, n)
		return d
	}
	if d.dup {
		e.stats.Duplicated++
		e.metrics.Duplicated.Inc()
		e.record("%s dup %dB", dir, n)
	}
	if d.delay > 0 {
		e.stats.Delayed++
		e.metrics.Delayed.Inc()
		e.record("%s delay %v", dir, d.delay)
	}
	return d
}

// queuedPacket is a received duplicate waiting for the next ReadFrom.
type queuedPacket struct {
	data []byte
	addr net.Addr
}

// PacketConn wraps a net.PacketConn with per-direction fault injection. Send
// faults apply to WriteTo, receive faults to ReadFrom.
type PacketConn struct {
	inner      net.PacketConn
	env        *Env
	send, recv PacketFaults // fixed at wrap time

	mu      sync.Mutex
	pending []queuedPacket // receive-side duplicates
}

// WrapPacketConn wraps pc so datagrams written through it suffer send
// faults and datagrams read through it suffer recv faults, with randomness
// and waits owned by env.
func WrapPacketConn(pc net.PacketConn, env *Env, send, recv PacketFaults) *PacketConn {
	return &PacketConn{inner: pc, env: env, send: send, recv: recv}
}

// WriteTo applies send-direction faults, then forwards to the inner conn.
// Dropped datagrams still report success, as a lossy network would.
func (c *PacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	if !c.send.enabled() {
		return c.inner.WriteTo(p, addr)
	}
	d := c.env.decidePacket(c.send, "send", len(p))
	if d.drop {
		return len(p), nil
	}
	if d.delay > 0 {
		c.env.doSleep(d.delay)
	}
	if _, err := c.inner.WriteTo(p, addr); err != nil {
		return 0, err
	}
	if d.dup {
		if _, err := c.inner.WriteTo(p, addr); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// ReadFrom delivers a queued duplicate first, then reads from the inner
// conn applying receive-direction faults.
func (c *PacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	for {
		c.mu.Lock()
		if len(c.pending) > 0 {
			h := c.pending[0]
			c.pending = c.pending[1:]
			c.mu.Unlock()
			return copy(p, h.data), h.addr, nil
		}
		c.mu.Unlock()

		n, addr, err := c.inner.ReadFrom(p)
		if err != nil {
			return n, addr, err
		}
		if !c.recv.enabled() {
			return n, addr, nil
		}
		d := c.env.decidePacket(c.recv, "recv", n)
		if d.drop {
			continue
		}
		if d.delay > 0 {
			c.env.doSleep(d.delay)
		}
		if d.dup {
			c.mu.Lock()
			c.pending = append(c.pending, queuedPacket{data: append([]byte(nil), p[:n]...), addr: addr})
			c.mu.Unlock()
		}
		return n, addr, nil
	}
}

// Close closes the inner conn. A queued duplicate not yet read is lost.
func (c *PacketConn) Close() error { return c.inner.Close() }

// LocalAddr returns the inner conn's address.
func (c *PacketConn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// SetDeadline forwards to the inner conn.
func (c *PacketConn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline forwards to the inner conn.
func (c *PacketConn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline forwards to the inner conn.
func (c *PacketConn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
