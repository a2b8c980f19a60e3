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
	// Reorder holds the datagram and delivers it after the next one —
	// adjacent-swap reordering, the deterministic core of real-world
	// misordering. A held datagram with no successor is lost (tail drop).
	Reorder float64
	// Truncate delivers only the first TruncateTo bytes, modelling
	// MTU-clipped or corrupted-length datagrams.
	Truncate float64
	// TruncateTo is the byte prefix kept by a truncation; default 8.
	TruncateTo int
	// Delay pauses delivery for a uniform duration in [DelayMin, DelayMax]
	// via the Env's sleep hook.
	Delay              float64
	DelayMin, DelayMax time.Duration
}

// enabled reports whether any fault can fire.
func (f PacketFaults) enabled() bool {
	return f.Drop > 0 || f.Dup > 0 || f.Reorder > 0 || f.Truncate > 0 || f.Delay > 0
}

// packetDecision is the per-datagram fate, drawn in one locked step.
type packetDecision struct {
	drop, dup, reorder, trunc bool
	truncTo                   int
	delay                     time.Duration
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
	d.reorder = e.rng.Float64() < f.Reorder
	d.trunc = e.rng.Float64() < f.Truncate
	if e.rng.Float64() < f.Delay {
		span := f.DelayMax - f.DelayMin
		if span < 0 {
			span = 0
		}
		d.delay = f.DelayMin
		if span > 0 {
			d.delay += time.Duration(e.rng.Int63n(int64(span) + 1))
		}
	}
	d.truncTo = f.TruncateTo
	if d.truncTo <= 0 {
		d.truncTo = 8
	}
	switch {
	case d.drop:
		e.stats.Dropped++
		e.metrics.Dropped.Inc()
		e.record("%s drop %dB", dir, n)
	case d.reorder:
		e.stats.Reordered++
		e.metrics.Reordered.Inc()
		e.record("%s reorder %dB", dir, n)
	}
	if !d.drop {
		if d.dup {
			e.stats.Duplicated++
			e.metrics.Duplicated.Inc()
			e.record("%s dup %dB", dir, n)
		}
		if d.trunc {
			e.stats.Truncated++
			e.metrics.Truncated.Inc()
			e.record("%s trunc %dB->%dB", dir, n, min(n, d.truncTo))
		}
		if d.delay > 0 {
			e.stats.Delayed++
			e.metrics.Delayed.Inc()
			e.record("%s delay %v", dir, d.delay)
		}
	}
	return d
}

// heldPacket is a datagram parked by a reorder decision.
type heldPacket struct {
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
	heldOut *heldPacket  // parked by a send-side reorder
	pending []heldPacket // receive-side queue: dups and released reorders
	heldIn  *heldPacket  // parked by a receive-side reorder
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
	out := p
	if d.trunc && len(out) > d.truncTo {
		out = out[:d.truncTo]
	}
	if d.delay > 0 {
		c.env.doSleep(d.delay)
	}
	if d.reorder {
		c.mu.Lock()
		if c.heldOut == nil {
			c.heldOut = &heldPacket{data: append([]byte(nil), out...), addr: addr}
			c.mu.Unlock()
			return len(p), nil
		}
		c.mu.Unlock()
	}
	if _, err := c.inner.WriteTo(out, addr); err != nil {
		return 0, err
	}
	if d.dup {
		if _, err := c.inner.WriteTo(out, addr); err != nil {
			return 0, err
		}
	}
	// Release a parked datagram after this one: adjacent swap.
	c.mu.Lock()
	held := c.heldOut
	c.heldOut = nil
	c.mu.Unlock()
	if held != nil {
		if _, err := c.inner.WriteTo(held.data, held.addr); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// ReadFrom delivers queued datagrams (duplicates, released reorders) first,
// then reads from the inner conn applying receive-direction faults.
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
		if d.trunc && n > d.truncTo {
			n = d.truncTo
		}
		if d.delay > 0 {
			c.env.doSleep(d.delay)
		}
		if d.reorder {
			c.mu.Lock()
			if c.heldIn == nil {
				c.heldIn = &heldPacket{data: append([]byte(nil), p[:n]...), addr: addr}
				c.mu.Unlock()
				continue // deliver the *next* datagram first
			}
			c.mu.Unlock()
		}
		c.mu.Lock()
		if d.dup {
			c.pending = append(c.pending, heldPacket{data: append([]byte(nil), p[:n]...), addr: addr})
		}
		if c.heldIn != nil {
			c.pending = append(c.pending, *c.heldIn)
			c.heldIn = nil
		}
		c.mu.Unlock()
		return n, addr, nil
	}
}

// Close closes the inner conn. A datagram still parked by a reorder is
// lost, like a packet in flight when the interface goes down.
func (c *PacketConn) Close() error { return c.inner.Close() }

// LocalAddr returns the inner conn's address.
func (c *PacketConn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// SetDeadline forwards to the inner conn.
func (c *PacketConn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline forwards to the inner conn.
func (c *PacketConn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline forwards to the inner conn.
func (c *PacketConn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
