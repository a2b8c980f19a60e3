package gns_test

// The resolution-service semantics this package's tests used to assert on
// the in-memory Service — placement, quorum, stale replicas, anti-entropy,
// failure edges — asserted on the one implementation left: a loopback
// cluster behind this package's Server and Transport. Replica failure is a
// faultnet partition cut, not a flag on a struct.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"locind/internal/faultnet"
	"locind/internal/gns"
	"locind/internal/gns/cluster"
	"locind/internal/netaddr"
	"locind/internal/obs"
	"locind/internal/reliable"
)

func addr(s string) []netaddr.Addr { return []netaddr.Addr{netaddr.MustParseAddr(s)} }

func startCluster(t *testing.T, shards, replicas int) *cluster.Cluster {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	c, err := cluster.Start(ctx, cluster.Config{Shards: shards, Replicas: replicas}, faultnet.NewEnv(1), nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); cancel() })
	return c
}

// newClient returns a client with no memory of any name: one dead replica
// costs it one short timeout, and the first request after an outage probes
// at once (cooldown 1).
func newClient(t *testing.T, c *cluster.Cluster, origin uint64) *cluster.Client {
	t.Helper()
	cl := cluster.NewClient(c.Addrs(), cluster.ClientConfig{Origin: origin, BreakerCooldown: 1})
	cl.Timeout = 100 * time.Millisecond
	cl.HedgeDelay = 40 * time.Millisecond
	cl.Retries = 0
	cl.Backoff = reliable.Backoff{}
	t.Cleanup(cl.Close)
	return cl
}

// stored reports the address every replica of name's shard holds for it;
// ok is false if one holds nothing or they disagree.
func stored(c *cluster.Cluster, name string) (a netaddr.Addr, ok bool) {
	shard := cluster.ShardOf(name, c.Shards())
	for r := 0; r < c.Replicas(); r++ {
		rec, have := c.Node(shard, r).Store.Get(name)
		if !have || (r > 0 && rec.Addrs[0] != a) {
			return a, false
		}
		a = rec.Addrs[0]
	}
	return a, true
}

func TestNewValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {3, 0}, {-1, 3}} {
		cfg := cluster.Config{Shards: bad[0], Replicas: bad[1]}
		if c, err := cluster.Start(context.Background(), cfg, faultnet.NewEnv(1), nil); err == nil {
			c.Close()
			t.Errorf("Start(shards=%d, replicas=%d) should fail", bad[0], bad[1])
		}
	}
	c := startCluster(t, 5, 3)
	if c.Shards() != 5 || c.Replicas() != 3 || len(c.Addrs()) != 5 || len(c.ShardAddrs(4)) != 3 {
		t.Fatalf("topology = %d x %d, addrs %v", c.Shards(), c.Replicas(), c.Addrs())
	}
}

func TestReplicasForProperties(t *testing.T) {
	c := startCluster(t, 7, 3)
	seen := map[int]int{}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("host%d.example", i)
		s := cluster.ShardOf(name, 7)
		if s < 0 || s >= 7 || s != cluster.ShardOf(name, 7) {
			t.Fatalf("placement of %q: shard %d, unstable or out of range", name, s)
		}
		seen[s]++
		dup := map[string]bool{}
		for _, a := range c.ShardAddrs(s) {
			if dup[a] {
				t.Fatalf("duplicate replica for %q: %v", name, c.ShardAddrs(s))
			}
			dup[a] = true
		}
		if len(dup) != 3 {
			t.Fatalf("replica set size %d", len(dup))
		}
	}
	// Every shard gets a fair share of names (an even split is 28).
	for s := 0; s < 7; s++ {
		if seen[s] < 12 {
			t.Errorf("shard %d underloaded: %d placements", s, seen[s])
		}
	}
}

func TestUpdateLookupRoundTrip(t *testing.T) {
	c := startCluster(t, 5, 3)
	cl := newClient(t, c, 1)
	m := cluster.NewClientMetrics(obs.NewRegistry())
	cl.SetMetrics(m, 0)
	ctx := context.Background()
	v1, err := cl.Update(ctx, "alice.phone", addr("10.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := cl.Lookup(ctx, "alice.phone")
	if err != nil || rec.Version != v1.Sum() || rec.Addrs[0] != addr("10.0.0.1")[0] {
		t.Fatalf("lookup = %+v, %v", rec, err)
	}
	// A mobility event: one update, a history that extends the last one.
	v2, err := cl.Update(ctx, "alice.phone", addr("20.0.0.9"))
	if err != nil {
		t.Fatal(err)
	}
	if v1.Compare(v2) != cluster.Before || v2.Sum() <= v1.Sum() {
		t.Fatalf("versions must increase: %s then %s", v1.Encode(), v2.Encode())
	}
	if rec, _ = newClient(t, c, 2).Lookup(ctx, "alice.phone"); rec.Addrs[0] != addr("20.0.0.9")[0] {
		t.Fatal("lookup must observe the newest binding")
	}
	if _, err := cl.Lookup(ctx, "nobody"); !errors.Is(err, gns.ErrNotFound) {
		t.Fatalf("missing name error = %v", err)
	}
	if up, lk := m.Updates.Value(), m.Lookups.Value(); up != 2 || lk != 2 {
		t.Fatalf("stats = %d, %d", up, lk)
	}
}

func TestQuorumBehaviour(t *testing.T) {
	c := startCluster(t, 1, 3)
	cl := newClient(t, c, 1)
	ctx := context.Background()
	name := "bob.phone"

	// One replica down: majority (2 of 3) still holds.
	c.KillReplica(0, 0)
	committed, err := cl.Update(ctx, name, addr("10.0.0.2"))
	if err != nil {
		t.Fatalf("update with 2/3 replicas should succeed: %v", err)
	}
	if rec, err := newClient(t, c, 2).Lookup(ctx, name); err != nil || rec.Stale {
		t.Fatalf("lookup with 2/3 replicas should succeed fresh: %+v, %v", rec, err)
	}

	// Two replicas down: no write quorum. A read needs one replica, not a
	// majority, so it is the whole set going that takes lookups down.
	c.KillReplica(0, 1)
	if _, err := cl.Update(ctx, name, addr("10.0.0.3")); !errors.Is(err, gns.ErrNoQuorum) {
		t.Fatalf("update without quorum should fail, got %v", err)
	}
	c.KillReplica(0, 2)
	if _, err := newClient(t, c, 3).Lookup(ctx, name); !errors.Is(err, gns.ErrNoQuorum) {
		t.Fatalf("lookup with no replica should fail, got %v", err)
	}

	// Recovery: whichever replica answers, the writer never reads a binding
	// older than its last committed write.
	c.Heal()
	rec, err := cl.Lookup(ctx, name)
	if err != nil || rec.Stale {
		t.Fatalf("lookup after recovery: %+v, %v", rec, err)
	}
	if rec.Version < committed.Sum() {
		t.Fatalf("lookup after recovery = %+v, older than the committed write %s", rec, committed.Encode())
	}
}

func TestStaleReplicaNeverWins(t *testing.T) {
	c := startCluster(t, 1, 3)
	cl := newClient(t, c, 1)
	ctx := context.Background()
	name := "carol.phone"
	if _, err := cl.Update(ctx, name, addr("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	// Each replica in turn misses an update — one of them is the name's
	// primary, which answers lookups first — and although it is back and
	// answering, the writer's floor must pass over its older history.
	for r := 0; r < 3; r++ {
		want := addr(fmt.Sprintf("20.0.0.%d", r+2))
		c.KillReplica(0, r)
		if _, err := cl.Update(ctx, name, want); err != nil {
			t.Fatal(err)
		}
		c.Heal()
		for i := 0; i < 3; i++ {
			rec, err := cl.Lookup(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Addrs[0] != want[0] {
				t.Fatalf("stale binding surfaced with replica %d lagging: %v", r, rec.Addrs)
			}
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	c := startCluster(t, 5, 3)
	cl := newClient(t, c, 1)
	m := cluster.NewClientMetrics(obs.NewRegistry())
	cl.SetMetrics(m, 0)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("dev%d", i%10)
				if _, err := cl.Update(ctx, name, addr(fmt.Sprintf("10.%d.%d.1", w, i))); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				if _, err := cl.Lookup(ctx, name); err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if up := m.Updates.Value(); up != 400 {
		t.Fatalf("updates = %d", up)
	}
	// Same-name updates were serialised: every name's replicas agree.
	for i := 0; i < 10; i++ {
		if a, ok := stored(c, fmt.Sprintf("dev%d", i)); !ok {
			t.Fatalf("replicas of dev%d diverged or lost it (%v)", i, a)
		}
	}
}

// TestLoadPerReplica is the §6.2.2 point measured at the stores: a global
// update load spreads over the shards, so a node holds — and was written —
// about 1/N of it, however many replicas each name has.
func TestLoadPerReplica(t *testing.T) {
	c := startCluster(t, 4, 3)
	cl := newClient(t, c, 1)
	const names = 200
	for i := 0; i < names; i++ {
		if _, err := cl.Update(context.Background(), fmt.Sprintf("dev%d.example", i), addr("10.0.0.1")); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for s := 0; s < 4; s++ {
		n := c.Node(s, 0).Store.Len()
		if n < names/8 || n > names*3/8 {
			t.Errorf("shard %d holds %d of %d names, want about a quarter", s, n, names)
		}
		for r := 1; r < 3; r++ {
			if got := c.Node(s, r).Store.Len(); got != n {
				t.Errorf("shard %d: replica %d holds %d names, replica 0 holds %d", s, r, got, n)
			}
		}
		total += n
	}
	if total != names {
		t.Fatalf("shards hold %d names in all, want %d", total, names)
	}
}

// TestRepairAntiEntropy verifies that a recovered replica catches up: after
// Repair every replica stores the latest committed binding.
func TestRepairAntiEntropy(t *testing.T) {
	c := startCluster(t, 1, 3)
	cl := newClient(t, c, 1)
	ctx := context.Background()
	name := "eve.phone"
	if _, err := cl.Update(ctx, name, addr("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	c.KillReplica(0, 2)
	if _, err := cl.Update(ctx, name, addr("20.0.0.2")); err != nil {
		t.Fatal(err)
	}
	c.Heal()
	if _, ok := stored(c, name); ok {
		t.Fatal("the killed replica should lag before repair")
	}
	if cluster.Repair(c, nil) == 0 {
		t.Fatal("stale replica should have been repaired")
	}
	if a, ok := stored(c, name); !ok || a != addr("20.0.0.2")[0] {
		t.Fatalf("replicas after repair: %v agree=%v", a, ok)
	}
	// Idempotence: a second pass repairs nothing.
	if again := cluster.Repair(c, nil); again != 0 {
		t.Fatalf("second repair pass touched %d records", again)
	}
}

func TestAllReplicasFailed(t *testing.T) {
	c := startCluster(t, 5, 3)
	cl := newClient(t, c, 1)
	ctx := context.Background()
	if _, err := cl.Update(ctx, "n", addr("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		c.KillShard(s)
	}
	if _, err := cl.Update(ctx, "n", addr("10.0.0.1")); !errors.Is(err, gns.ErrNoQuorum) {
		t.Fatalf("update with every replica down: %v, want ErrNoQuorum", err)
	}
	if _, err := newClient(t, c, 2).Lookup(ctx, "n"); !errors.Is(err, gns.ErrNoQuorum) {
		t.Fatalf("lookup with every replica down: %v, want ErrNoQuorum", err)
	}
	// The writer degrades to its last-known-good binding, flagged.
	if rec, err := cl.Lookup(ctx, "n"); err != nil || !rec.Stale || rec.Addrs[0] != addr("10.0.0.1")[0] {
		t.Fatalf("degraded lookup: %+v err=%v", rec, err)
	}
	// Full recovery restores service with the pre-outage binding intact.
	c.Heal()
	rec, err := newClient(t, c, 3).Lookup(ctx, "n")
	if err != nil || rec.Stale || rec.Addrs[0] != addr("10.0.0.1")[0] {
		t.Fatalf("post-recovery lookup: %+v err=%v", rec, err)
	}
}

// TestLookupStaleFallback: when the service becomes unreachable, a client
// degrades to the last binding it resolved instead of failing — the
// stale-mapping operating regime of loc/ID caches — and says so.
func TestLookupStaleFallback(t *testing.T) {
	c := startCluster(t, 1, 3)
	cl := newClient(t, c, 1)
	ctx := context.Background()
	if _, err := cl.Update(ctx, "x.phone", addr("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	fresh, err := cl.Lookup(ctx, "x.phone")
	if err != nil || fresh.Stale {
		t.Fatalf("fresh lookup: %+v err=%v", fresh, err)
	}
	c.KillShard(0)
	stale, err := cl.Lookup(ctx, "x.phone")
	if err != nil {
		t.Fatalf("stale fallback should mask the outage: %v", err)
	}
	if !stale.Stale || stale.Version != fresh.Version || stale.Addrs[0] != fresh.Addrs[0] {
		t.Fatalf("stale record %+v != cached %+v flagged stale", stale, fresh)
	}
	if cl.StaleServed() != 1 {
		t.Fatalf("StaleServed = %d", cl.StaleServed())
	}
	// A name never resolved still fails.
	if _, err := cl.Lookup(ctx, "never.seen"); !errors.Is(err, gns.ErrNoQuorum) {
		t.Fatalf("uncached name must surface the outage: %v", err)
	}
}

func TestQuorumLossMidUpdate(t *testing.T) {
	c := startCluster(t, 1, 3)
	cl := newClient(t, c, 1)
	ctx := context.Background()
	a1, a2 := addr("10.0.0.1"), addr("10.0.0.2")
	if _, err := cl.Update(ctx, "n", a1); err != nil {
		t.Fatal(err)
	}

	// Quorum vanishes between the two updates: the second one must fail,
	// and the minority replica that absorbed it holds a history no majority
	// committed.
	c.KillReplica(0, 0)
	c.KillReplica(0, 1)
	if _, err := cl.Update(ctx, "n", a2); !errors.Is(err, gns.ErrNoQuorum) {
		t.Fatalf("mid-outage update: %v, want ErrNoQuorum", err)
	}

	// Repair converges every replica onto the newest history present: the
	// residue extends the committed one, so the uncommitted write becomes
	// durable rather than lost — the anti-entropy semantic (newest wins).
	c.Heal()
	if cluster.Repair(c, nil) == 0 {
		t.Fatal("repair found nothing after a minority-only write")
	}
	if a, ok := stored(c, "n"); !ok || a != a2[0] {
		t.Fatalf("post-repair replicas hold %v (agree=%v), want the repaired residue %v", a, ok, a2)
	}
	if rec, err := newClient(t, c, 2).Lookup(ctx, "n"); err != nil || rec.Addrs[0] != a2[0] {
		t.Fatalf("post-repair lookup: %+v err=%v", rec, err)
	}
	if cluster.Repair(c, nil) != 0 {
		t.Fatal("second repair pass found work — not converged")
	}
}

func TestRepairAfterStaggeredFailRecover(t *testing.T) {
	c := startCluster(t, 2, 3)
	cl := newClient(t, c, 1)
	ctx := context.Background()
	names := []string{"a", "b", "c", "d", "e", "f"}
	round := func(a []netaddr.Addr) {
		t.Helper()
		for _, n := range names {
			if _, err := cl.Update(ctx, n, a); err != nil {
				t.Fatal(err)
			}
		}
	}
	round(addr("10.1.0.1"))

	// Staggered outages: replica 0 of each shard misses round two, replica
	// 1 misses round three — different replicas lag by different amounts.
	c.KillReplica(0, 0)
	c.KillReplica(1, 0)
	round(addr("10.1.0.2"))
	c.Heal()
	c.KillReplica(0, 1)
	c.KillReplica(1, 1)
	round(addr("10.1.0.3"))
	c.Heal()

	cluster.Repair(c, nil)
	// Every replica now holds the final round, so any reader sees it.
	reader := newClient(t, c, 2)
	for _, n := range names {
		if a, ok := stored(c, n); !ok || a != addr("10.1.0.3")[0] {
			t.Fatalf("replicas of %q after staggered repair: %v agree=%v", n, a, ok)
		}
		if rec, err := reader.Lookup(ctx, n); err != nil || rec.Addrs[0] != addr("10.1.0.3")[0] {
			t.Fatalf("lookup %q after staggered repair: %+v err=%v", n, rec, err)
		}
	}
	if cluster.Repair(c, nil) != 0 {
		t.Fatal("repair not idempotent after staggered outages")
	}
}

func TestDoubleRecoverIdempotent(t *testing.T) {
	c := startCluster(t, 1, 3)
	cl := newClient(t, c, 1)
	ctx := context.Background()
	if _, err := cl.Update(ctx, "n", addr("10.2.0.1")); err != nil {
		t.Fatal(err)
	}
	c.KillReplica(0, 1)
	c.KillReplica(0, 1) // double kill: no-op
	if _, err := cl.Update(ctx, "n", addr("10.2.0.2")); err != nil {
		t.Fatalf("quorum of 2/3 should still commit: %v", err)
	}
	c.Heal()
	c.Heal() // double heal: no-op, state unchanged
	rec, err := cl.Lookup(ctx, "n")
	if err != nil || rec.Stale || rec.Addrs[0] != addr("10.2.0.2")[0] {
		t.Fatalf("lookup after double heal: %+v err=%v", rec, err)
	}
	// Repair after the idempotent heal converges the lagged replica exactly
	// once; repeating it must not resurface work.
	if cluster.Repair(c, nil) != 1 {
		t.Fatal("repair should rewrite exactly the one lagging replica")
	}
	if cluster.Repair(c, nil) != 0 {
		t.Fatal("double heal resurfaced repair work")
	}
}
