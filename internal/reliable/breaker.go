package reliable

import "sync"

// BreakerState is the circuit state of a Breaker.
type BreakerState int32

const (
	// BreakerClosed admits every request (the healthy state).
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects requests without touching the network.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe request; its outcome decides
	// between closing the circuit and re-opening it.
	BreakerHalfOpen
)

// String renders the state for logs and metrics labels.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a half-open circuit breaker with deterministic, clock-free
// cooldown. Health probing in this repository must replay bit-for-bit under
// a fixed seed, so instead of a wall-clock reset timeout the breaker counts
// rejected requests: after Threshold consecutive failures it opens and
// rejects the next Cooldown requests outright, then admits a single
// half-open probe. The probe's success closes the circuit; its failure
// re-opens it for another Cooldown rejections. Demand-driven cooldown also
// has the right degraded-mode shape: an idle replica is never probed, and a
// busy client probes a dead replica at a rate proportional to its own
// traffic, not to elapsed time.
//
// The zero value is usable (Threshold 3, Cooldown 8). A nil *Breaker admits
// everything and records nothing, so unguarded call sites cost one check.
type Breaker struct {
	// Threshold is how many consecutive failures open the circuit.
	// Values below 1 default to 3.
	Threshold int
	// Cooldown is how many requests are rejected while open before one
	// half-open probe is admitted. Values below 1 default to 8.
	Cooldown int
	// OnTransition, when non-nil, observes every state change. It is called
	// with the breaker's lock held, so it must not call back into the
	// breaker; metric bumps and log lines are the intended use.
	OnTransition func(from, to BreakerState)

	mu       sync.Mutex
	state    BreakerState
	failures int // consecutive failures while closed
	rejected int // requests rejected while open
	probing  bool
}

func (b *Breaker) threshold() int {
	if b.Threshold < 1 {
		return 3
	}
	return b.Threshold
}

func (b *Breaker) cooldown() int {
	if b.Cooldown < 1 {
		return 8
	}
	return b.Cooldown
}

func (b *Breaker) transition(to BreakerState) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	if b.OnTransition != nil {
		b.OnTransition(from, to)
	}
}

// Allow reports whether the next request may proceed. In the open state it
// counts the rejection; once Cooldown rejections have accumulated the
// breaker turns half-open and admits the caller as the probe. Callers that
// proceed must report the outcome with Success or Failure. Nil-safe: a nil
// breaker admits everything.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		// One probe at a time: concurrent requests during a probe are
		// rejected until the probe reports.
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default: // BreakerOpen
		b.rejected++
		if b.rejected >= b.cooldown() {
			b.rejected = 0
			b.transition(BreakerHalfOpen)
			b.probing = true
			return true
		}
		return false
	}
}

// Success reports a request that completed; it closes the circuit from any
// state and clears the failure run. Nil-safe.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.rejected = 0
	b.probing = false
	b.transition(BreakerClosed)
}

// Failure reports a request that failed. A failed half-open probe re-opens
// the circuit immediately; in the closed state the Threshold-th consecutive
// failure opens it. Nil-safe.
func (b *Breaker) Failure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		b.rejected = 0
		b.transition(BreakerOpen)
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold() {
			b.failures = 0
			b.rejected = 0
			b.transition(BreakerOpen)
		}
	}
}

// Reset force-closes the circuit and clears all counters. It is the
// operator escape hatch: after a known repair (a healed partition, a
// restarted replica) callers need not wait out the demand-driven cooldown —
// the next request probes the replica directly. Nil-safe.
func (b *Breaker) Reset() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.rejected = 0
	b.probing = false
	b.transition(BreakerClosed)
}
