package reliable

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestBackoffDelayTable(t *testing.T) {
	cases := []struct {
		name    string
		b       Backoff
		attempt int
		want    time.Duration
	}{
		{"zero value", Backoff{}, 3, 0},
		{"first retry", Backoff{Base: 100 * time.Millisecond}, 0, 100 * time.Millisecond},
		{"doubles by default", Backoff{Base: 100 * time.Millisecond}, 1, 200 * time.Millisecond},
		{"third retry", Backoff{Base: 100 * time.Millisecond}, 2, 400 * time.Millisecond},
		{"capped", Backoff{Base: 100 * time.Millisecond, Max: 250 * time.Millisecond}, 3, 250 * time.Millisecond},
		{"cap below base", Backoff{Base: 100 * time.Millisecond, Max: 50 * time.Millisecond}, 0, 50 * time.Millisecond},
		{"large attempt hits cap not overflow", Backoff{Base: time.Second, Max: time.Minute}, 500, time.Minute},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.b.Delay(tc.attempt, nil); got != tc.want {
				t.Fatalf("Delay(%d) = %v, want %v", tc.attempt, got, tc.want)
			}
		})
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Jitter: 0.5}
	// Same seed, same schedule.
	r1 := rand.New(rand.NewSource(7))
	r2 := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		d1, d2 := b.Delay(i, r1), b.Delay(i, r2)
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, d1, d2)
		}
		// Jittered delay stays within [d(1-j), d].
		full := b.Delay(i, nil)
		if d1 > full || d1 < time.Duration(float64(full)*0.5) {
			t.Fatalf("attempt %d: jittered %v outside [%v, %v]", i, d1, full/2, full)
		}
	}
	// Nil rng disables jitter entirely.
	if got := b.Delay(0, nil); got != 100*time.Millisecond {
		t.Fatalf("nil rng delay = %v", got)
	}
	// Jitter above 1 is clamped, never negative.
	wild := Backoff{Base: time.Millisecond, Jitter: 9}
	for i := 0; i < 50; i++ {
		if d := wild.Delay(0, r1); d < 0 || d > time.Millisecond {
			t.Fatalf("clamped jitter out of range: %v", d)
		}
	}
}

// noSleep records requested delays without waiting.
func noSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func TestDoSucceedsAfterRetries(t *testing.T) {
	var delays []time.Duration
	p := Policy{
		MaxAttempts: 5,
		Backoff:     Backoff{Base: 10 * time.Millisecond},
		Sleep:       noSleep(&delays),
	}
	calls := 0
	attempts, err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || attempts != 3 || calls != 3 {
		t.Fatalf("Do = (%d, %v), calls = %d", attempts, err, calls)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(delays) != len(want) || delays[0] != want[0] || delays[1] != want[1] {
		t.Fatalf("delays = %v, want %v", delays, want)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	var delays []time.Duration
	p := Policy{MaxAttempts: 3, Sleep: noSleep(&delays)}
	sentinel := errors.New("boom")
	attempts, err := p.Do(context.Background(), func(context.Context) error { return sentinel })
	if attempts != 3 || !errors.Is(err, sentinel) {
		t.Fatalf("Do = (%d, %v)", attempts, err)
	}
}

func TestDoPermanentStopsImmediately(t *testing.T) {
	p := Policy{MaxAttempts: 10}
	sentinel := errors.New("bad request")
	calls := 0
	attempts, err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return Permanent(sentinel)
	})
	if calls != 1 || attempts != 1 || !errors.Is(err, sentinel) || !IsPermanent(err) {
		t.Fatalf("permanent: calls=%d attempts=%d err=%v", calls, attempts, err)
	}
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) must be nil")
	}
}

func TestDoHonoursContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 100, Backoff: Backoff{Base: time.Hour}}
	calls := 0
	attempts, err := p.Do(ctx, func(context.Context) error {
		calls++
		cancel() // cancel mid-retry: the backoff sleep must abort
		return errors.New("transient")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if calls != 1 || attempts != 1 {
		t.Fatalf("cancelled run made %d calls, %d attempts", calls, attempts)
	}
}

func TestDoPerAttemptDeadline(t *testing.T) {
	p := Policy{MaxAttempts: 2, PerAttempt: 20 * time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error { return ctx.Err() }}
	slowCalls := 0
	attempts, err := p.Do(context.Background(), func(ctx context.Context) error {
		slowCalls++
		<-ctx.Done() // simulate an op pinned until its per-attempt deadline
		return ctx.Err()
	})
	if attempts != 2 || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("per-attempt Do = (%d, %v)", attempts, err)
	}
	if slowCalls != 2 {
		t.Fatalf("per-attempt deadline should allow retries, got %d calls", slowCalls)
	}
}

func TestDoDeterministicWithSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		var delays []time.Duration
		p := Policy{
			MaxAttempts: 6,
			Backoff:     Backoff{Base: 50 * time.Millisecond, Jitter: 0.5},
			Rand:        rand.New(rand.NewSource(seed)),
			Sleep:       noSleep(&delays),
		}
		p.Do(context.Background(), func(context.Context) error { return errors.New("x") }) //nolint:errcheck
		return delays
	}
	a, b := run(42), run(42)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("want 5 retries, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("retry %d: %v != %v (same seed must replay)", i, a[i], b[i])
		}
	}
	if c := run(43); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatal("different seed produced identical jitter schedule")
	}
}
