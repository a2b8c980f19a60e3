package faultnet

import (
	"net"
	"net/netip"
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

// queuedPacket is a received duplicate waiting for the next read.
type queuedPacket struct {
	data []byte
	addr netip.AddrPort
}

// addrPortConn is the inner socket a PacketConn wraps: a datagram socket
// that moves peers as netip.AddrPort, as *net.UDPConn does.
type addrPortConn interface {
	net.PacketConn
	ReadFromUDPAddrPort(p []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(p []byte, addr netip.AddrPort) (int, error)
}

// PacketConn is the one faultnet wrapper of a datagram socket: per-direction
// probabilistic faults drawn from its Env and, when it has a Partition,
// unconditional cuts. The two meet in a fixed order. A datagram read from
// across a cut is swallowed before any receive fault is drawn for it, so it
// consumes no variates. A written datagram draws its send faults first and
// meets the cut after, so a duplicated write into a cut is swallowed, and
// counted, twice.
//
// The faults live in ReadFromUDPAddrPort and WriteToUDPAddrPort; ReadFrom
// and WriteTo are adapters over them, and the wrapper overrides every
// method of the inner socket that moves a datagram, so none passes one
// around the faults.
type PacketConn struct {
	addrPortConn
	env        *Env
	send, recv PacketFaults // fixed at wrap time
	part       *Partition   // nil: no cuts
	self       string       // LocalAddr at wrap time, the conn's identity in part

	mu      sync.Mutex
	pending []queuedPacket // receive-side duplicates
}

// WrapPacketConn wraps pc so datagrams written through it suffer send
// faults and datagrams read through it suffer recv faults, with randomness
// and waits owned by env. A non-nil part cuts datagrams to and from the
// addresses it isolates.
func WrapPacketConn(pc net.PacketConn, env *Env, send, recv PacketFaults, part *Partition) *PacketConn {
	inner, ok := pc.(addrPortConn)
	if !ok {
		inner = addrPortShim{pc}
	}
	return &PacketConn{addrPortConn: inner, env: env, send: send, recv: recv, part: part, self: pc.LocalAddr().String()}
}

// addrPortShim adds the AddrPort methods to a net.PacketConn that lacks
// them, converting the peer at each call. Every socket a cluster node
// listens on is a *net.UDPConn and needs none; the one socket that takes
// the shim is the benchmark's stub, wrapped by Partition.WrapPacketConn to
// time the wrapper alone.
type addrPortShim struct{ net.PacketConn }

func (s addrPortShim) ReadFromUDPAddrPort(p []byte) (int, netip.AddrPort, error) {
	n, addr, err := s.ReadFrom(p)
	return n, addrPortOf(addr), err
}

func (s addrPortShim) WriteToUDPAddrPort(p []byte, addr netip.AddrPort) (int, error) {
	return s.WriteTo(p, net.UDPAddrFromAddrPort(addr))
}

// addrPortOf converts a *net.UDPAddr to its AddrPort, IPv4 unmapped: a
// 16-byte IPv4 address would otherwise be written to an IPv4 socket as
// "non-IPv4 address" and render as [::ffff:a.b.c.d] in a cut. Any other
// net.Addr is the zero AddrPort.
func addrPortOf(addr net.Addr) netip.AddrPort {
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		return netip.AddrPort{}
	}
	ap := ua.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// cut reports whether a datagram exchanged with peer crosses a live
// isolation, and counts it if so. The peer's address is rendered only
// while some isolation is live: a healthy cluster pays one atomic load.
func (c *PacketConn) cut(peer netip.AddrPort) bool {
	if c.part == nil || !peer.IsValid() || c.part.live.Load() == 0 || !c.part.Blocked(c.self, peer.String()) {
		return false
	}
	c.part.swallow()
	return true
}

// WriteTo is WriteToUDPAddrPort for a *net.UDPAddr peer. Any other addr
// still draws its send faults, then fails at the inner socket.
func (c *PacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	return c.WriteToUDPAddrPort(p, addrPortOf(addr))
}

// ReadFrom is ReadFromUDPAddrPort with the peer as a *net.UDPAddr.
func (c *PacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	n, ap, err := c.ReadFromUDPAddrPort(p)
	if err != nil {
		return n, nil, err
	}
	return n, net.UDPAddrFromAddrPort(ap), nil
}

// WriteToUDPAddrPort applies send-direction faults, then the cut, then
// forwards to the inner conn. Dropped and cut datagrams still report
// success, as a lossy network would.
//
//lint:zeroalloc per datagram with no send fault enabled and no isolation live
func (c *PacketConn) WriteToUDPAddrPort(p []byte, addr netip.AddrPort) (int, error) {
	copies := 1
	if c.send.enabled() {
		d := c.env.decidePacket(c.send, "send", len(p))
		if d.drop {
			return len(p), nil
		}
		if d.delay > 0 {
			c.env.doSleep(d.delay)
		}
		if d.dup {
			copies = 2
		}
	}
	for range copies {
		if c.cut(addr) {
			continue
		}
		if _, err := c.addrPortConn.WriteToUDPAddrPort(p, addr); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// ReadFromUDPAddrPort delivers a queued duplicate first, then reads from
// the inner conn, swallowing datagrams from across a cut and applying
// receive-direction faults to the rest. An IPv4 peer comes back unmapped
// whatever the socket's family, so it renders, and is cut, as a.b.c.d:port.
//
//lint:zeroalloc per datagram with no receive fault enabled and no isolation live
func (c *PacketConn) ReadFromUDPAddrPort(p []byte) (int, netip.AddrPort, error) {
	for {
		c.mu.Lock()
		if len(c.pending) > 0 {
			h := c.pending[0]
			c.pending = c.pending[1:]
			c.mu.Unlock()
			return copy(p, h.data), h.addr, nil
		}
		c.mu.Unlock()

		n, addr, err := c.addrPortConn.ReadFromUDPAddrPort(p)
		if err != nil {
			return n, addr, err
		}
		addr = netip.AddrPortFrom(addr.Addr().Unmap(), addr.Port())
		if c.cut(addr) {
			continue
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
