// Package reliable is the shared reliability-policy layer for every
// networked pipeline in the repo (GNS UDP resolution, NomadLog and vantage
// HTTP uploads). The paper's measurement infrastructure lived on
// hostile networks — intermittent cellular/WiFi uplinks and PlanetLab node
// churn — so the client paths retry with exponential backoff, bound their
// patience with context deadlines, and keep last-known-good answers to
// degrade to when the network stays down (the dominant operating regime of
// loc/ID mapping caches).
//
// Everything here is deterministic given a seed: jitter comes from an
// explicit *rand.Rand and sleeping goes through a hook, so chaos runs
// replay byte-for-byte.
package reliable

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"locind/internal/obs"
)

// Backoff computes exponential backoff delays — each retry waits twice as
// long as the one before — with optional deterministic jitter. The zero value
// is usable (no waiting between attempts).
type Backoff struct {
	// Base is the delay before the first retry. Zero means no delay.
	Base time.Duration
	// Max caps each delay. Zero means uncapped.
	Max time.Duration
	// Jitter is the fraction of each delay that is randomized, in [0, 1].
	// A delay d with jitter j becomes uniform in [d(1-j), d].
	Jitter float64
}

// Delay returns the pause before retry number attempt (0 = first retry).
// Jitter, when configured, is drawn from rng; a nil rng disables jitter so
// the schedule stays deterministic without a seed.
func (b Backoff) Delay(attempt int, rng *rand.Rand) time.Duration {
	if b.Base <= 0 {
		return 0
	}
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= 2
		if b.Max > 0 && d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Max > 0 && d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 && rng != nil {
		j := b.Jitter
		if j > 1 {
			j = 1
		}
		d = d * (1 - j + j*rng.Float64())
	}
	return time.Duration(d)
}

// permanentError marks an error as non-retryable.
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

// Permanent wraps err so Do stops retrying and returns it immediately.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return permanentError{err}
}

// IsPermanent reports whether err was marked with Permanent.
func IsPermanent(err error) bool {
	var p permanentError
	return errors.As(err, &p)
}

// Policy is a reusable retry policy: how many attempts, how long each may
// take, and how to pause between them.
type Policy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Values below 1 are treated as 1.
	MaxAttempts int
	// PerAttempt bounds each attempt with a context deadline. Zero means
	// only the caller's context bounds the attempt.
	PerAttempt time.Duration
	// Backoff schedules the pauses between attempts.
	Backoff Backoff
	// Rand supplies jitter; nil disables jitter.
	Rand *rand.Rand
	// Sleep replaces the real sleep between attempts (tests, virtual
	// clocks). It must honour ctx cancellation. Nil uses a timer.
	Sleep func(ctx context.Context, d time.Duration) error
	// Metrics, when non-nil, counts attempts/retries/give-ups into obs
	// handles. Nil records nothing.
	Metrics *Metrics
	// TraceSpan, when non-nil, is the request span the retry loop runs
	// under: every attempt opens a child span labelled with its 0-based
	// index, so a causal tree shows each retry as a sibling under the one
	// request that caused it. Nil traces nothing.
	TraceSpan *obs.Span
}

// Do runs op under the policy until it succeeds, exhausts its attempts,
// hits a Permanent error, or ctx is done. It returns the number of
// attempts actually made alongside the final error.
func (p Policy) Do(ctx context.Context, op func(ctx context.Context) error) (attempts int, err error) {
	max := p.MaxAttempts
	if max < 1 {
		max = 1
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	m := p.Metrics.orNop()
	var lastErr error
	for attempt := 0; attempt < max; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return attempt, fmt.Errorf("%w (after %d attempts: %w)", err, attempt, lastErr)
			}
			return attempt, err
		}
		attemptCtx, cancel := ctx, context.CancelFunc(nil)
		if p.PerAttempt > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, p.PerAttempt)
		}
		m.Attempts.Inc()
		span := p.TraceSpan.Child("attempt", "n", strconv.Itoa(attempt))
		err := op(attemptCtx)
		span.End()
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return attempt + 1, nil
		}
		lastErr = err
		if IsPermanent(err) {
			m.GiveUps.Inc()
			return attempt + 1, err
		}
		if attempt+1 >= max {
			break
		}
		delay := p.Backoff.Delay(attempt, p.Rand)
		m.retry(delay)
		if delay > 0 {
			if err := sleep(ctx, delay); err != nil {
				return attempt + 1, fmt.Errorf("%w (after %d attempts: %w)", err, attempt+1, lastErr)
			}
		}
	}
	m.GiveUps.Inc()
	return max, fmt.Errorf("reliable: all %d attempts failed: %w", max, lastErr)
}

// sleepCtx sleeps for d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Cache is a last-known-good store keyed by K: the stale-mapping fallback
// of loc/ID resolution. It is safe for concurrent use.
//
// The zero value is unbounded. Bound gives it a capacity with epoch-flush
// eviction: crossing the cap drops the whole map in one O(1) swap rather
// than tracking per-entry recency, which is the right trade for a fallback
// cache — a flushed entry is repopulated by the next successful fetch, and
// million-name runs cannot grow the map without limit.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	m        map[K]V
	limit    int
	evictCtr *obs.Counter
}

// Bound caps the cache at limit entries (0 restores unbounded) and, when
// ctr is non-nil, counts flushed entries into it. Safe to call at any time;
// an over-full cache is flushed on its next Put.
func (c *Cache[K, V]) Bound(limit int, ctr *obs.Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = limit
	c.evictCtr = ctr
}

// Put stores the freshest value for k.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[K]V{}
	}
	if c.limit > 0 && len(c.m) >= c.limit {
		if _, ok := c.m[k]; !ok {
			// Epoch flush: one more distinct key would cross the cap, so
			// the whole epoch is dropped and restarted with this entry.
			c.evictCtr.Add(int64(len(c.m)))
			c.m = make(map[K]V, c.limit)
		}
	}
	c.m[k] = v
}

// Get returns the cached value for k, if any.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	return v, ok
}
