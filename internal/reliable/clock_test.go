package reliable

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"locind/internal/obs"
)

// FakeClock is a virtual clock for Policy.Sleep: Sleep returns immediately,
// records the requested pause, and advances Now by it, so a test asserts the
// exact schedule. It is safe for concurrent use, though schedule assertions
// are only meaningful when one goroutine owns the retry loop.
type FakeClock struct {
	mu     sync.Mutex
	now    time.Duration
	sleeps []time.Duration
}

// NewFakeClock returns a virtual clock starting at zero.
func NewFakeClock() *FakeClock { return &FakeClock{} }

// Sleep records d, advances the clock, and returns without blocking. A
// cancelled ctx is honoured first, mirroring the real timer path.
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleeps = append(c.sleeps, d)
	c.now += d
	return nil
}

// Now returns the accumulated virtual time.
func (c *FakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleeps returns every pause taken so far, in order.
func (c *FakeClock) Sleeps() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

// TestFakeClockExactJitteredSchedule drives a jittered policy on the fake
// clock and asserts the complete backoff schedule, delay by delay, against
// an independently replayed RNG — no tolerance windows, no wall time.
func TestFakeClockExactJitteredSchedule(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: 0.5}
	clock := NewFakeClock()
	p := Policy{
		MaxAttempts: 6,
		Backoff:     b,
		Rand:        rand.New(rand.NewSource(42)),
		Sleep:       clock.Sleep,
	}
	boom := errors.New("boom")
	attempts, err := p.Do(context.Background(), func(context.Context) error { return boom })
	if attempts != 6 || !errors.Is(err, boom) {
		t.Fatalf("Do = %d, %v", attempts, err)
	}

	replay := rand.New(rand.NewSource(42))
	var want []time.Duration
	var total time.Duration
	for i := 0; i < 5; i++ {
		d := b.Delay(i, replay)
		want = append(want, d)
		total += d
	}
	got := clock.Sleeps()
	if len(got) != len(want) {
		t.Fatalf("took %d sleeps, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sleep %d = %v, want exactly %v", i, got[i], want[i])
		}
		if got[i] < b.Base/2 || got[i] > b.Max {
			t.Fatalf("sleep %d = %v outside jitter envelope [%v, %v]", i, got[i], b.Base/2, b.Max)
		}
	}
	if clock.Now() != total {
		t.Fatalf("virtual clock = %v, want %v", clock.Now(), total)
	}
}

func TestFakeClockHonoursCancellation(t *testing.T) {
	clock := NewFakeClock()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := clock.Sleep(ctx, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sleep = %v", err)
	}
	if clock.Now() != 0 || len(clock.Sleeps()) != 0 {
		t.Fatal("cancelled sleep must not advance the clock")
	}
}

func TestPolicyMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg, "test")
	clock := NewFakeClock()
	p := Policy{
		MaxAttempts: 4,
		Backoff:     Backoff{Base: time.Millisecond},
		Sleep:       clock.Sleep,
		Metrics:     m,
	}
	calls := 0
	if _, err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if m.Attempts.Value() != 3 || m.Retries.Value() != 2 || m.GiveUps.Value() != 0 {
		t.Fatalf("attempts=%d retries=%d giveups=%d", m.Attempts.Value(), m.Retries.Value(), m.GiveUps.Value())
	}
	if m.Sleeps.Value() != 2 || m.BackoffNanos.Value() != int64(3*time.Millisecond) {
		t.Fatalf("sleeps=%d backoffNanos=%d", m.Sleeps.Value(), m.BackoffNanos.Value())
	}

	boom := errors.New("down")
	if _, err := p.Do(context.Background(), func(context.Context) error { return boom }); err == nil {
		t.Fatal("expected failure")
	}
	if m.GiveUps.Value() != 1 {
		t.Fatalf("giveups = %d after exhaustion", m.GiveUps.Value())
	}

	// A nil Metrics policy records nothing and does not panic.
	p.Metrics = nil
	p.Do(context.Background(), func(context.Context) error { return nil }) //nolint:errcheck
	if m.Attempts.Value() != 7 {
		t.Fatalf("nil-metrics run leaked into handles: %d", m.Attempts.Value())
	}
}
