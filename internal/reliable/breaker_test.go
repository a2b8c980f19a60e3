package reliable

import "testing"

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b := &Breaker{Threshold: 3, Cooldown: 4}
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("allow %d: rejected while closed", i)
		}
		b.Failure()
		if got := b.State(); got != BreakerClosed {
			t.Fatalf("after %d failures: state %v, want closed", i+1, got)
		}
	}
	b.Allow()
	b.Failure() // third consecutive failure
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after threshold failures: state %v, want open", got)
	}
}

func TestBreakerSuccessClearsFailureRun(t *testing.T) {
	b := &Breaker{Threshold: 2}
	b.Failure()
	b.Success()
	b.Failure()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("interleaved success should clear the run; state %v", got)
	}
	b.Failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("two consecutive failures should open; state %v", got)
	}
}

func TestBreakerCooldownAdmitsOneProbe(t *testing.T) {
	b := &Breaker{Threshold: 1, Cooldown: 3}
	b.Allow()
	b.Failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state %v, want open", got)
	}
	// The next Cooldown-1 requests are rejected outright; the Cooldown-th
	// flips to half-open and is admitted as the probe.
	for i := 0; i < 2; i++ {
		if b.Allow() {
			t.Fatalf("reject %d: admitted while open", i)
		}
	}
	if !b.Allow() {
		t.Fatal("cooldown-expiring request should be admitted as the probe")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", got)
	}
	// Only one probe at a time.
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
}

func TestBreakerProbeOutcomes(t *testing.T) {
	open := func() *Breaker {
		b := &Breaker{Threshold: 1, Cooldown: 1}
		b.Allow()
		b.Failure()
		if !b.Allow() { // cooldown of 1: first rejected request becomes the probe
			t.Fatal("probe not admitted")
		}
		return b
	}

	b := open()
	b.Success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("after successful probe: state %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected a request")
	}

	b = open()
	b.Failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after failed probe: state %v, want open", got)
	}
}

func TestBreakerTransitionsObserved(t *testing.T) {
	var seen [][2]BreakerState
	b := &Breaker{Threshold: 1, Cooldown: 1}
	b.OnTransition = func(from, to BreakerState) { seen = append(seen, [2]BreakerState{from, to}) }
	b.Allow()
	b.Failure() // closed -> open
	b.Allow()   // open -> half-open (probe)
	b.Success() // half-open -> closed
	want := [][2]BreakerState{
		{BreakerClosed, BreakerOpen},
		{BreakerOpen, BreakerHalfOpen},
		{BreakerHalfOpen, BreakerClosed},
	}
	if len(seen) != len(want) {
		t.Fatalf("saw %d transitions, want %d: %v", len(seen), len(want), seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition %d: %v -> %v, want %v -> %v",
				i, seen[i][0], seen[i][1], want[i][0], want[i][1])
		}
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker should admit everything")
	}
	b.Success()
	b.Failure()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("nil breaker state %v, want closed", got)
	}
}

func TestBreakerZeroValueDefaults(t *testing.T) {
	b := &Breaker{}
	for i := 0; i < 3; i++ { // default threshold 3
		b.Allow()
		b.Failure()
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("zero-value breaker after 3 failures: state %v, want open", got)
	}
	rejected := 0
	for b.State() == BreakerOpen && !b.Allow() {
		rejected++
	}
	if rejected != 7 { // default cooldown 8: 7 rejects, the 8th is the probe
		t.Fatalf("rejected %d requests before the probe, want 7", rejected)
	}
}

// State returns the current circuit state. Nil-safe (reports closed).
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
