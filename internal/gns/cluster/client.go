package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"locind/internal/gns"
	"locind/internal/netaddr"
	"locind/internal/obs"
	"locind/internal/reliable"
)

// cachedRec is the client's per-name memory: the last committed record it
// wrote or fetched, with the version-vector history that proves it. It is
// both the read-your-writes floor and the last-known-good degraded answer.
type cachedRec struct {
	rec gns.Record
	vv  VV
}

// Client routes lookups and updates to the replicas owning each name.
//
// Placement: ShardOf picks the owning shard; within it, a per-name
// rendezvous ordering of the replicas gives every name a stable primary,
// spreading read load across the replica set with no shared state.
//
// Writes are quorum writes: a vput fans out to all R replicas of the
// owning shard and commits when a majority acknowledge; the committed
// record becomes the client's read-your-writes floor for that name.
//
// Reads are hedged and health-checked: the primary replica gets HedgeDelay
// to answer; then the next healthy replica is tried (a hedge), and so on
// through the replica set. A per-replica half-open circuit breaker
// (reliable.Breaker) turns repeated failures into instant skips, so a dead
// replica costs one timeout per cooldown window instead of one per lookup.
// An answer older than the floor is recognised as a lagging replica and
// passed over. When every replica is unreachable the client degrades to
// the last-known-good binding, flagged Record.Stale — resolution keeps
// working through a dead shard, just on old mappings.
//
// Every replica leg goes through one gns.Transport, which keeps idle
// sockets to the replicas between operations; Close releases them.
type Client struct {
	// Timeout bounds each non-primary attempt (round trip, and dial when no
	// idle socket to the replica is at hand).
	Timeout time.Duration
	// HedgeDelay bounds the primary lookup attempt: how long the primary
	// may stay silent before the lookup hedges to the next replica. Zero
	// disables hedging (the primary gets the full Timeout).
	HedgeDelay time.Duration
	// Retries is how many extra attempts each replica leg makes before the
	// client fails over to the next replica.
	Retries int
	// Backoff schedules pauses between per-leg attempts.
	Backoff reliable.Backoff
	// Sleep overrides the inter-attempt wait (virtual clock hook).
	Sleep func(ctx context.Context, d time.Duration) error
	// Tracer, when non-nil, roots one span per Lookup/Update; each replica
	// leg is a child span, each network attempt a grandchild, and the
	// server-side serve spans parent onto the leg via wire propagation —
	// one causal tree per hedged lookup.
	Tracer *obs.Tracer

	shards   [][]string
	origin   uint64
	breakers [][]*reliable.Breaker
	metrics  *ClientMetrics      // set by SetMetrics; nil counts nothing
	repMet   [][]*ReplicaMetrics // resolved by SetMetrics; nil rows no-op

	transport gns.Transport
	cache     reliable.Cache[string, cachedRec]
	attempts  atomic.Int64
	stale     atomic.Int64

	// nameMu stripes the per-name read-modify-write update path: two
	// goroutines bumping the same name must serialise (or they would derive
	// identical version vectors and collapse under last-writer-wins), but
	// updates to distinct names have no ordering relationship and should
	// never queue behind one another's quorum round trips.
	nameMu [updateStripes]sync.Mutex
}

// updateStripes is the number of per-name update locks. Collisions are
// harmless (two names sharing a stripe serialise unnecessarily); 64 keeps
// the false-sharing odds negligible for the fan-outs the experiments run.
const updateStripes = 64

// nameLock returns the stripe lock serialising updates to name.
//
//lint:zeroalloc per call
func (c *Client) nameLock(name string) *sync.Mutex {
	return &c.nameMu[fnvString(fnvOffset64, name)%updateStripes]
}

// ClientConfig sizes a Client.
type ClientConfig struct {
	// Origin is this client's version-vector identity; concurrent writers
	// need distinct origins. Clients are the only writers, so any value
	// will do.
	Origin uint64
	// BreakerCooldown configures every per-replica circuit breaker (zero =
	// the reliable.Breaker default).
	BreakerCooldown int
}

// NewClient builds a client over the address grid addrs ([shard][replica],
// from Cluster.Addrs or operator config) with sane defaults: 500ms
// timeouts, 50ms hedge delay, 1 retry per leg.
func NewClient(addrs [][]string, cfg ClientConfig) *Client {
	c := &Client{
		Timeout:    500 * time.Millisecond,
		HedgeDelay: 50 * time.Millisecond,
		Retries:    1,
		Backoff:    reliable.Backoff{Base: 50 * time.Millisecond, Max: time.Second},
		shards:     addrs,
		origin:     cfg.Origin,
	}
	for si := range addrs {
		row := make([]*reliable.Breaker, len(addrs[si]))
		for ri := range row {
			si, ri := si, ri
			b := &reliable.Breaker{Cooldown: cfg.BreakerCooldown}
			b.OnTransition = func(from, to reliable.BreakerState) {
				m := c.metrics.orNop()
				switch to {
				case reliable.BreakerOpen:
					m.BreakerOpens.Inc()
					c.replicaMetrics(si, ri).Opens.Inc()
				case reliable.BreakerHalfOpen:
					m.BreakerProbes.Inc()
				case reliable.BreakerClosed:
					m.BreakerCloses.Inc()
				}
			}
			row[ri] = b
		}
		c.breakers = append(c.breakers, row)
	}
	return c
}

// SetMetrics attaches m (may be nil), bounds the last-known-good cache to
// cacheLimit names (0 = unbounded) counting evictions in m, and resolves
// the per-replica counter grid so the hot path never takes the
// registration lock.
func (c *Client) SetMetrics(m *ClientMetrics, cacheLimit int) {
	c.metrics = m
	c.cache.Bound(cacheLimit, m.orNop().CacheEvictions)
	c.repMet = nil
	if m != nil {
		c.repMet = make([][]*ReplicaMetrics, len(c.shards))
		for si := range c.shards {
			row := make([]*ReplicaMetrics, len(c.shards[si]))
			for ri := range row {
				row[ri] = m.Replica(si, ri)
			}
			c.repMet[si] = row
		}
	}
}

// replicaMetrics returns the resolved per-replica counters for one grid
// cell, or no-op handles when metrics are unset.
func (c *Client) replicaMetrics(shard, replica int) *ReplicaMetrics {
	if c.repMet == nil {
		return noReplicaMetrics
	}
	return c.repMet[shard][replica]
}

// Close releases the client's idle sockets; operations started after it
// fail as if every replica were unreachable.
func (c *Client) Close() { c.transport.Close() }

// Attempts returns the total network attempts made — the determinism
// quantity chaos tests compare across same-seed runs.
func (c *Client) Attempts() int64 { return c.attempts.Load() }

// StaleServed returns how many lookups degraded to last-known-good.
func (c *Client) StaleServed() int64 { return c.stale.Load() }

// ResetBreakers force-closes every replica circuit. Demand-driven cooldown
// means an opened breaker re-probes only after BreakerCooldown rejected
// requests; when the operator knows the fault is fixed (a partition healed,
// a replica restarted) this skips straight to probing. The soak experiment
// calls it after healing its partition so the recovery it measures is
// convergence, not cooldown drain.
func (c *Client) ResetBreakers() {
	for _, row := range c.breakers {
		for _, br := range row {
			br.Reset()
		}
	}
}

func majority(r int) int { return r/2 + 1 }

// replicaOrder returns the shard's replica indices in name's rendezvous
// preference order: every client computes the same stable primary for a
// name, and read load spreads across replicas name by name. The order is
// ranked into buf, a caller's stack array, when it fits.
func replicaOrder(name string, replicas int, buf *[stackReplicas]int) []int {
	var order []int
	if replicas <= len(buf) {
		order = buf[:replicas]
	} else {
		order = make([]int, replicas) // oversize sets only, as in orderReplicas
	}
	orderReplicas(name, order)
	return order
}

// stackReplicas is the largest replica set orderReplicas ranks without
// allocating scratch space for the weights.
const stackReplicas = 16

// orderReplicas fills order with the indices 0..len(order)-1 by descending
// rendezvous weight — the FNV-1a hash of "name#replica" — ties to the lower
// index. An insertion sort: replica sets are a handful of nodes.
//
//lint:zeroalloc per call for replica sets up to stackReplicas
func orderReplicas(name string, order []int) {
	var stack [stackReplicas]uint64
	weights := stack[:]
	if len(order) > len(stack) {
		weights = make([]uint64, len(order)) // oversize sets only; every deployed one fits the stack array
	}
	prefix := (fnvString(fnvOffset64, name) ^ '#') * fnvPrime64
	for i := range order {
		w := fnvIndex(prefix, i)
		// Indices arrive ascending, so stopping at the first weight not
		// below w leaves equal weights in index order.
		j := i
		for ; j > 0 && weights[j-1] < w; j-- {
			weights[j], order[j] = weights[j-1], order[j-1]
		}
		weights[j], order[j] = w, i
	}
}

// replicasOf returns name's owning shard and that shard's replica
// addresses. The grid may come from operator config, so it may be empty or
// hold an empty row; a name with no replica to go to cannot reach a quorum.
func (c *Client) replicasOf(op, name string) (int, []string, error) {
	if len(c.shards) == 0 {
		return 0, nil, fmt.Errorf("%w: %s %q: the replica grid has no shards", gns.ErrNoQuorum, op, name)
	}
	shard := ShardOf(name, len(c.shards))
	if len(c.shards[shard]) == 0 {
		return shard, nil, fmt.Errorf("%w: %s %q: shard %d has no replicas", gns.ErrNoQuorum, op, name, shard)
	}
	return shard, c.shards[shard], nil
}

// startSpan opens the operation's root span: nested under the span carried
// by ctx when there is one, else fresh on c.Tracer.
func (c *Client) startSpan(ctx context.Context, name string, labels ...string) *obs.Span {
	if parent := obs.FromContext(ctx); parent != nil {
		return parent.Child(name, labels...)
	}
	return c.Tracer.Start(name, labels...)
}

// exchange runs one replica leg: a child span, a bounded retry loop, and
// the client's pooled gns.Transport. timeout bounds each attempt.
func (c *Client) exchange(ctx context.Context, addr string, req gns.Request, parent *obs.Span, timeout time.Duration, shard, replica int) (gns.Response, error) {
	leg := parent.Child("replica", "shard", strconv.Itoa(shard), "r", strconv.Itoa(replica))
	defer leg.End()
	req.Trace = leg.Context().Encode()
	p := reliable.Policy{
		MaxAttempts: c.Retries + 1,
		PerAttempt:  timeout,
		Backoff:     c.Backoff,
		Sleep:       c.Sleep,
		TraceSpan:   leg,
	}
	resp, attempts, err := c.transport.Exchange(ctx, addr, req, p)
	c.attempts.Add(int64(attempts))
	c.replicaMetrics(shard, replica).Legs.Inc()
	return resp, err
}

// Update installs a binding for name with a quorum write to the owning
// shard: the client bumps its origin on the last history it knows for the
// name and fans the versioned record out to all R replicas, committing
// when a majority acknowledge. If every reachable replica reports a
// strictly newer history (this client's memory of the name was evicted or
// another writer moved it forward), the write is rebased onto the observed
// history and re-sent — a read-modify-write repair that makes bounded
// client memory safe. Concurrent writers converge by deterministic
// last-writer-wins on the version vectors. The committed version vector is
// returned.
func (c *Client) Update(ctx context.Context, name string, addrs []netaddr.Addr) (VV, error) {
	m := c.metrics.orNop()
	m.Updates.Inc()
	shard, replicas, err := c.replicasOf("update", name)
	if err != nil {
		m.QuorumFailures.Inc()
		return nil, err
	}
	span := c.startSpan(ctx, "gnsc-update", "name", name, "shard", strconv.Itoa(shard))
	defer span.End()

	// Serialise same-name bumps only: two goroutines updating one name must
	// not derive the same counter, so the stripe is deliberately held across
	// the quorum fan-out below — releasing it mid-write would let a
	// concurrent same-name update read the same cached history and mint a
	// duplicate version vector. Distinct names land on distinct stripes and
	// proceed in parallel.
	mu := c.nameLock(name)
	mu.Lock()
	defer mu.Unlock()

	base, _ := c.cache.Get(name)
	vv := base.vv.Bump(c.origin)
	req := gns.Request{Op: "vput", Name: name}
	for _, a := range addrs {
		req.Addrs = append(req.Addrs, a.String())
	}

	var orderBuf [stackReplicas]int
	order := replicaOrder(name, len(replicas), &orderBuf)
	var lastErr error
	staleExhausted := false
	for round := 0; round < 3; round++ {
		req.VV = vv.Encode()
		acks := 0
		rebase := vv
		stale := false
		for _, r := range order {
			br := c.breakers[shard][r]
			if !br.Allow() {
				m.BreakerRejects.Inc()
				c.replicaMetrics(shard, r).Rejects.Inc()
				continue
			}
			//lint:allow lockflow same-name updates must hold their stripe across the quorum write to keep version vectors unique
			resp, err := c.exchange(ctx, replicas[r], req, span, c.Timeout, shard, r)
			if err != nil {
				br.Failure()
				lastErr = err
				continue
			}
			br.Success()
			if resp.VV == req.VV {
				acks++ // the replica holds exactly the history sent
				continue
			}
			svv, perr := ParseVV(resp.VV)
			if perr != nil {
				lastErr = perr
				continue
			}
			if vv.Compare(svv) == Before {
				// The replica holds a strictly newer history our bump did
				// not extend: the write was refused as stale. Remember the
				// observed history to rebase onto.
				stale = true
				rebase = rebase.Merge(svv)
				continue
			}
			acks++
		}
		if acks >= majority(len(replicas)) {
			rec := gns.Record{Name: name, Addrs: append([]netaddr.Addr(nil), addrs...), Version: vv.Sum()}
			c.cache.Put(name, cachedRec{rec: rec, vv: vv})
			return vv, nil
		}
		if !stale {
			break // unreachable replicas, not version conflicts: rebasing cannot help
		}
		staleExhausted = true
		vv = rebase.Bump(c.origin)
	}
	m.QuorumFailures.Inc()
	if lastErr == nil {
		if staleExhausted {
			lastErr = fmt.Errorf("replica history kept superseding the write")
		} else {
			lastErr = fmt.Errorf("all replica circuits open")
		}
	}
	return nil, fmt.Errorf("%w: update %q on shard %d: %v", gns.ErrNoQuorum, name, shard, lastErr)
}

// Lookup resolves name against the owning shard's replicas in hedged,
// health-ordered sequence: the primary gets HedgeDelay to answer, then
// each further healthy replica is hedged in with the full Timeout; the
// first answer at or beyond the client's read-your-writes floor wins. When
// every reachable replica lags the floor, the client's own committed
// record answers (fresh — it was quorum-committed). When no replica is
// reachable at all, the last-known-good binding answers flagged
// Record.Stale; with nothing cached, the quorum error surfaces.
func (c *Client) Lookup(ctx context.Context, name string) (gns.Record, error) {
	m := c.metrics.orNop()
	m.Lookups.Inc()
	shard, replicas, err := c.replicasOf("lookup", name)
	if err != nil {
		return gns.Record{}, err
	}
	span := c.startSpan(ctx, "gnsc-lookup", "name", name, "shard", strconv.Itoa(shard))
	defer span.End()

	cached, hasCached := c.cache.Get(name)
	req := gns.Request{Op: "vget", Name: name}
	var notFound, lastErr error
	legs, answered := 0, false
	var orderBuf [stackReplicas]int
	for _, r := range replicaOrder(name, len(replicas), &orderBuf) {
		br := c.breakers[shard][r]
		if !br.Allow() {
			m.BreakerRejects.Inc()
			c.replicaMetrics(shard, r).Rejects.Inc()
			continue
		}
		timeout := c.Timeout
		if legs == 0 && c.HedgeDelay > 0 {
			timeout = c.HedgeDelay
		}
		if legs > 0 {
			m.Hedges.Inc()
		}
		legs++
		resp, err := c.exchange(ctx, replicas[r], req, span, timeout, shard, r)
		if err != nil {
			if errors.Is(err, gns.ErrNotFound) {
				// The replica answered authoritatively for its own copy;
				// it is healthy, it just may lag the rest of the set.
				br.Success()
				answered = true
				notFound = err
				continue
			}
			br.Failure()
			lastErr = err
			continue
		}
		br.Success()
		answered = true
		// A reply this client cannot parse in full is a failed leg, never a
		// shorter record: what is returned here is also cached as the
		// read-your-writes floor.
		addrs, aerr := parseAddrs(resp.Addrs)
		if aerr != nil {
			lastErr = aerr
			continue
		}
		// The common answer is the history this client already holds:
		// keep that one rather than parse a copy.
		vv := cached.vv
		if !vv.encodes(resp.VV) {
			var perr error
			if vv, perr = ParseVV(resp.VV); perr != nil {
				lastErr = perr
				continue
			}
		}
		rec := gns.Record{Name: resp.Name, Addrs: addrs, Version: resp.Version}
		if hasCached && vv.Compare(cached.vv) == Before {
			// A lagging replica: it answered with history older than what
			// this client has already seen committed. Keep hedging.
			continue
		}
		c.cache.Put(name, cachedRec{rec: rec, vv: vv})
		return rec, nil
	}
	if hasCached {
		if answered {
			// Replicas are up but every answer lagged the floor:
			// read-your-writes from the client's own committed record.
			m.ReadYourWrites.Inc()
			return cached.rec, nil
		}
		// The whole replica set is unreachable: degraded mode.
		rec := cached.rec
		rec.Stale = true
		c.stale.Add(1)
		m.StaleServed.Inc()
		return rec, nil
	}
	if notFound != nil {
		return gns.Record{}, notFound
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("all replica circuits open")
	}
	return gns.Record{}, fmt.Errorf("%w: lookup %q on shard %d: %v", gns.ErrNoQuorum, name, shard, lastErr)
}
