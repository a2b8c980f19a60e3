package faultnet

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ErrReset is returned by a stream op after faultnet injected a mid-stream
// connection reset. It satisfies net.Error with Temporary()=false so
// callers treat it exactly like a peer RST.
var ErrReset = errors.New("faultnet: connection reset by fault injection")

// StreamFaults configures TCP-side fault injection. Rates are
// probabilities in [0, 1]; the zero value injects nothing.
type StreamFaults struct {
	// Refuse closes the connection immediately after accept — the client
	// sees a connection that dies before a single byte, the observable
	// shape of a refused/overloaded listener.
	Refuse float64
	// Reset gives the connection a byte budget drawn uniformly from
	// [ResetAfterMin, ResetAfterMax] (bytes read+written through the
	// wrapper); once spent, the underlying conn is closed and ops return
	// ErrReset — a mid-stream RST.
	Reset                        float64
	ResetAfterMin, ResetAfterMax int
	// Stall pauses the connection once, before its first I/O, for
	// StallFor via the Env's sleep hook — a black-holed peer that needs a
	// deadline to detect.
	Stall    float64
	StallFor time.Duration
}

// connDecision is the per-connection fate, drawn once at accept/wrap time.
type connDecision struct {
	refuse     bool
	resetAfter int // -1 = never
	stall      bool
}

// decideConn draws a connection's fate. Three uniform variates are always
// consumed (plus one when a reset fires) so the stream advances identically
// per connection.
func (e *Env) decideConn(f StreamFaults) connDecision {
	e.mu.Lock()
	defer e.mu.Unlock()
	d := connDecision{resetAfter: -1}
	d.refuse = e.rng.Float64() < f.Refuse
	if e.rng.Float64() < f.Reset {
		lo, hi := f.ResetAfterMin, f.ResetAfterMax
		if lo <= 0 {
			lo = 1
		}
		if hi < lo {
			hi = lo
		}
		d.resetAfter = lo + int(e.rng.Int63n(int64(hi-lo)+1))
	}
	d.stall = e.rng.Float64() < f.Stall
	switch {
	case d.refuse:
		e.stats.Refused++
		e.metrics.Refused.Inc()
		e.record("conn refuse")
	case d.resetAfter >= 0:
		e.stats.Reset++
		e.metrics.Reset.Inc()
		e.record("conn reset-after %dB", d.resetAfter)
	}
	if !d.refuse && d.stall {
		e.stats.Stalled++
		e.metrics.Stalled.Inc()
		e.record("conn stall %v", f.StallFor)
	}
	return d
}

// Listener wraps a net.Listener so accepted connections suffer
// StreamFaults. Refused connections are closed immediately and never
// surfaced to the caller's Accept.
type Listener struct {
	inner  net.Listener
	env    *Env
	faults StreamFaults
}

// WrapListener wraps ln in the fault domain env.
func WrapListener(ln net.Listener, env *Env, faults StreamFaults) *Listener {
	return &Listener{inner: ln, env: env, faults: faults}
}

// Accept accepts from the inner listener, applying per-connection fault
// decisions. Connections chosen for refusal are closed and skipped.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		conn, err := l.inner.Accept()
		if err != nil {
			return nil, err
		}
		d := l.env.decideConn(l.faults)
		if d.refuse {
			conn.Close()
			continue
		}
		return &Conn{Conn: conn, env: l.env, faults: l.faults, dec: d}, nil
	}
}

// Close closes the inner listener.
func (l *Listener) Close() error { return l.inner.Close() }

// Addr returns the inner listener's address.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// Conn is a fault-injected stream connection.
type Conn struct {
	net.Conn
	env    *Env
	faults StreamFaults
	dec    connDecision

	mu      sync.Mutex
	used    int // bytes read+written so far
	stalled bool
	closed  bool
}

// WrapConn applies faults to an already-established connection (client
// side), drawing its fate from env immediately.
func WrapConn(conn net.Conn, env *Env, faults StreamFaults) *Conn {
	return &Conn{Conn: conn, env: env, faults: faults, dec: env.decideConn(faults)}
}

// pre runs the pre-op fault checks shared by Read and Write: the one-shot
// stall and the reset budget. It returns how many bytes the op may move
// (negative = unlimited) or ErrReset.
func (c *Conn) pre() (int, error) {
	c.mu.Lock()
	needStall := c.dec.stall && !c.stalled
	c.stalled = true
	closed := c.closed
	budget := -1
	if c.dec.resetAfter >= 0 {
		budget = c.dec.resetAfter - c.used
	}
	c.mu.Unlock()
	if closed {
		return 0, ErrReset
	}
	if needStall {
		c.env.doSleep(c.faults.StallFor)
	}
	if budget == 0 {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		c.Conn.Close()
		return 0, ErrReset
	}
	return budget, nil
}

// post accounts moved bytes against the reset budget.
func (c *Conn) post(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.used += n
	c.mu.Unlock()
}

// Read reads from the stream, honouring the connection's fault decisions.
func (c *Conn) Read(p []byte) (int, error) {
	budget, err := c.pre()
	if err != nil {
		return 0, err
	}
	if budget > 0 && len(p) > budget {
		p = p[:budget]
	}
	n, err := c.Conn.Read(p)
	c.post(n)
	return n, err
}

// Write writes to the stream, honouring the connection's fault decisions.
// A write clipped by the reset budget sends the surviving prefix and then
// resets — the bytes-on-the-wire shape of a real mid-write RST.
func (c *Conn) Write(p []byte) (int, error) {
	budget, err := c.pre()
	if err != nil {
		return 0, err
	}
	clipped := false
	if budget > 0 && len(p) > budget {
		p = p[:budget]
		clipped = true
	}
	n, err := c.Conn.Write(p)
	c.post(n)
	if err != nil {
		return n, err
	}
	if clipped {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		c.Conn.Close()
		return n, ErrReset
	}
	return n, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.Conn.Close()
}
