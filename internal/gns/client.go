package gns

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"locind/internal/netaddr"
	"locind/internal/obs"
	"locind/internal/reliable"
)

// Client is the resolver side of the UDP protocol. Datagrams vanish on
// lossy paths, so every round trip runs under a reliable.Policy:
// per-attempt timeouts, exponential backoff with deterministic jitter, an
// optional shared retry budget, and — for lookups — graceful degradation to
// the last known binding when the network stays down (the stale-mapping
// operating regime of loc/ID caches). A Client keeps idle sockets to its
// server between calls (see Transport); Close releases them.
type Client struct {
	ServerAddr string
	// Timeout bounds each attempt (round trip, and dial when no idle socket
	// is at hand).
	Timeout time.Duration
	// Retries is how many extra attempts follow a failed one.
	Retries int
	// Backoff schedules pauses between attempts.
	Backoff reliable.Backoff
	// Rand supplies backoff jitter; nil disables jitter. Chaos tests seed
	// this for reproducible retry schedules.
	Rand *rand.Rand
	// Budget, when non-nil, caps retries across all calls on this client.
	Budget *reliable.Budget
	// Sleep overrides the inter-attempt wait (virtual clock hook).
	Sleep func(ctx context.Context, d time.Duration) error
	// AllowStale serves the last successfully resolved binding when a
	// lookup exhausts its retries, marking the Record's provenance via
	// Record.Stale and the StaleServed counter. An authoritative not-found
	// is never masked by a stale answer.
	AllowStale bool
	// Metrics, when non-nil, counts the retry loop's activity (attempts,
	// retries, backoff, give-ups) into obs handles.
	Metrics *reliable.Metrics
	// Tracer, when non-nil, records one request span per Lookup/Update with
	// per-attempt child spans, and propagates the span's TraceContext in
	// the request framing so server-side spans parent onto it. When the
	// caller's ctx already carries a span (obs.ContextWith), the request
	// span nests under that instead of starting a new trace.
	Tracer *obs.Tracer

	transport Transport
	cache     reliable.Cache[string, Record]
	attempts  atomic.Int64
	stale     atomic.Int64
}

// NewClient builds a client with sane defaults: 500ms per attempt, 3
// retries, exponential backoff from 50ms capped at 1s.
func NewClient(serverAddr string) *Client {
	return &Client{
		ServerAddr: serverAddr,
		Timeout:    500 * time.Millisecond,
		Retries:    3,
		Backoff:    reliable.Backoff{Base: 50 * time.Millisecond, Max: time.Second},
	}
}

// Close releases the client's idle sockets; calls made after it fail.
func (c *Client) Close() { c.transport.Close() }

// BoundStaleCache caps the last-known-good cache at limit entries with
// epoch-flush eviction, counting flushed entries into ctr (which may be
// nil) — million-name runs must not grow the fallback map without limit.
func (c *Client) BoundStaleCache(limit int, ctr *obs.Counter) {
	c.cache.Bound(limit, ctr)
}

// StaleCacheEvictions reports how many cached bindings epoch flushes have
// dropped.
func (c *Client) StaleCacheEvictions() int64 { return c.cache.Evictions() }

func (c *Client) policy(span *obs.Span) reliable.Policy {
	return reliable.Policy{
		MaxAttempts: c.Retries + 1,
		PerAttempt:  c.Timeout,
		Backoff:     c.Backoff,
		Rand:        c.Rand,
		Budget:      c.Budget,
		Sleep:       c.Sleep,
		Metrics:     c.Metrics,
		TraceSpan:   span,
	}
}

// startSpan opens the request span for one client call: a child of the
// span carried by ctx when there is one (so gns traffic nests under the
// driving experiment), else a fresh root on c.Tracer. Nil when tracing is
// off on both paths.
func (c *Client) startSpan(ctx context.Context, name string, labels ...string) *obs.Span {
	if parent := obs.FromContext(ctx); parent != nil {
		return parent.Child(name, labels...)
	}
	return c.Tracer.Start(name, labels...)
}

func (c *Client) roundTrip(ctx context.Context, req Request, span *obs.Span) (Response, error) {
	req.Trace = span.Context().Encode()
	resp, attempts, err := c.transport.Exchange(ctx, c.ServerAddr, req, c.policy(span))
	c.attempts.Add(int64(attempts))
	if err != nil {
		if reliable.IsPermanent(err) {
			// The server answered; the answer is authoritative.
			return Response{}, err
		}
		return Response{}, fmt.Errorf("gns: no response after %d attempts: %w", attempts, err)
	}
	return resp, nil
}

// Attempts returns the total number of network attempts this client has
// made — the quantity chaos tests compare across same-seed runs.
func (c *Client) Attempts() int64 { return c.attempts.Load() }

// StaleServed returns how many lookups were answered from the stale cache.
func (c *Client) StaleServed() int64 { return c.stale.Load() }

// Lookup resolves a name over UDP. ctx bounds the whole retry loop; each
// attempt is additionally capped by c.Timeout. With AllowStale set, a
// lookup that exhausts its retries degrades to the last binding this
// client resolved successfully, flagged Record.Stale (StaleServed counts
// such answers). A permanent wire error — the name authoritatively does
// not exist, or the request was malformed — is returned as-is: it is an
// answer, not an outage.
func (c *Client) Lookup(ctx context.Context, name string) (Record, error) {
	span := c.startSpan(ctx, "gns-lookup", "name", name)
	defer span.End()
	resp, err := c.roundTrip(ctx, Request{Op: "lookup", Name: name}, span)
	if err != nil {
		if c.AllowStale && !reliable.IsPermanent(err) {
			if rec, ok := c.cache.Get(name); ok {
				rec.Stale = true
				c.stale.Add(1)
				return rec, nil
			}
		}
		return Record{}, err
	}
	rec := Record{Name: resp.Name, Version: resp.Version}
	for _, sa := range resp.Addrs {
		a, err := netaddr.ParseAddr(sa)
		if err != nil {
			return Record{}, err
		}
		rec.Addrs = append(rec.Addrs, a)
	}
	c.cache.Put(name, rec)
	return rec, nil
}

// Update installs a binding over UDP. ctx bounds the whole retry loop.
func (c *Client) Update(ctx context.Context, name string, addrs []netaddr.Addr) (uint64, error) {
	span := c.startSpan(ctx, "gns-update", "name", name)
	defer span.End()
	req := Request{Op: "update", Name: name}
	for _, a := range addrs {
		req.Addrs = append(req.Addrs, a.String())
	}
	resp, err := c.roundTrip(ctx, req, span)
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}
