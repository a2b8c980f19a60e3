package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"locind/internal/faultnet"
	"locind/internal/gns"
	"locind/internal/netaddr"
	"locind/internal/obs"
	"locind/internal/reliable"
)

func TestShardOfPlacement(t *testing.T) {
	const shards = 4
	counts := make([]int, shards)
	for i := 0; i < 4000; i++ {
		name := fmt.Sprintf("host-%d.example", i)
		s := ShardOf(name, shards)
		if s < 0 || s >= shards {
			t.Fatalf("ShardOf(%q)=%d out of range", name, s)
		}
		if s != ShardOf(name, shards) {
			t.Fatalf("ShardOf(%q) unstable", name)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n < 700 || n > 1300 {
			t.Fatalf("shard %d got %d/4000 names — rendezvous spread broken: %v", s, n, counts)
		}
	}
	// Rendezvous stability: growing the shard set moves a name only if the
	// new shard wins it; nothing reshuffles between old shards.
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("host-%d.example", i)
		old, grown := ShardOf(name, shards), ShardOf(name, shards+1)
		if grown != old && grown != shards {
			t.Fatalf("%q moved %d -> %d when shard %d was added", name, old, grown, shards)
		}
	}
}

func TestReplicaOrderStablePermutation(t *testing.T) {
	const r = 5
	seen := map[int]bool{}
	order := orderOf("some-name", r)
	for _, idx := range order {
		if idx < 0 || idx >= r || seen[idx] {
			t.Fatalf("replicaOrder not a permutation: %v", order)
		}
		seen[idx] = true
	}
	for i := 0; i < 10; i++ {
		again := orderOf("some-name", r)
		for j := range order {
			if again[j] != order[j] {
				t.Fatalf("replicaOrder unstable: %v vs %v", order, again)
			}
		}
	}
	// Different names should not all share a primary.
	primaries := map[int]bool{}
	for i := 0; i < 64; i++ {
		primaries[orderOf(fmt.Sprintf("n%d", i), r)[0]] = true
	}
	if len(primaries) < 2 {
		t.Fatalf("every name chose the same primary: %v", primaries)
	}
}

func TestStorePutSupersedes(t *testing.T) {
	st := NewStore(1 << 40)
	a1 := netaddr.MustParseAddr("10.0.0.1")
	a2 := netaddr.MustParseAddr("10.0.0.2")

	v1 := VV{}.Bump(1)
	if !st.Put(VRecord{Name: "n", Addrs: []netaddr.Addr{a1}, VV: v1}) {
		t.Fatal("first put refused")
	}
	// Retried put (same history) is a no-op but not an error.
	if st.Put(VRecord{Name: "n", Addrs: []netaddr.Addr{a1}, VV: v1}) {
		t.Fatal("identical retry should not reinstall")
	}
	// Causally newer wins.
	v2 := v1.Bump(1)
	if !st.Put(VRecord{Name: "n", Addrs: []netaddr.Addr{a2}, VV: v2}) {
		t.Fatal("dominating put refused")
	}
	// Causally older is refused.
	if st.Put(VRecord{Name: "n", Addrs: []netaddr.Addr{a1}, VV: v1}) {
		t.Fatal("stale put installed")
	}
	rec, _ := st.Get("n")
	if len(rec.Addrs) != 1 || rec.Addrs[0] != a2 {
		t.Fatalf("stored addrs %v, want [%v]", rec.Addrs, a2)
	}

	// Concurrent histories: both delivery orders end at the same winner.
	x := VV{}.Bump(10)          // loser of the tiebreak (shorter)
	y := VV{}.Bump(11).Bump(11) // winner (longer history)
	ra := VRecord{Name: "c", Addrs: []netaddr.Addr{a1}, VV: x}
	rb := VRecord{Name: "c", Addrs: []netaddr.Addr{a2}, VV: y}
	s1, s2 := NewStore(1), NewStore(2)
	s1.Put(ra)
	s1.Put(rb)
	s2.Put(rb)
	s2.Put(ra)
	g1, _ := s1.Get("c")
	g2, _ := s2.Get("c")
	if g1.Addrs[0] != a2 || g2.Addrs[0] != a2 {
		t.Fatalf("delivery order changed the winner: %v vs %v", g1.Addrs, g2.Addrs)
	}
	if g1.VV.Compare(g2.VV) != Equal {
		t.Fatalf("merged histories differ: %s vs %s", g1.VV.Encode(), g2.VV.Encode())
	}
}

// putOracle is Store.Put as it was before a dominating history skipped the
// merge: whatever supersedes is merged with the stored history, and a
// concurrent loser's history is absorbed.
func putOracle(recs map[string]VRecord, rec VRecord) bool {
	cur, ok := recs[rec.Name]
	if !ok {
		recs[rec.Name] = rec
		return true
	}
	if rec.VV.Supersedes(cur.VV) {
		merged := rec
		merged.VV = rec.VV.Merge(cur.VV)
		recs[rec.Name] = merged
		return true
	}
	if cur.VV.Compare(rec.VV) == Concurrent {
		cur.VV = cur.VV.Merge(rec.VV)
		recs[rec.Name] = cur
	}
	return false
}

// TestStorePutMatchesMergingOracle: for every causal relation between the
// incoming and the stored history, Put installs and reports what the
// always-merging oracle does; a strictly dominating history is stored as
// the very slice that arrived.
func TestStorePutMatchesMergingOracle(t *testing.T) {
	a1 := []netaddr.Addr{netaddr.MustParseAddr("10.0.0.1")}
	a2 := []netaddr.Addr{netaddr.MustParseAddr("10.0.0.2")}
	mustVV := func(s string) VV {
		v, err := ParseVV(s)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, tc := range []struct {
		name      string
		stored    string // "" = nothing stored
		incoming  string
		installed bool
		verbatim  bool // the incoming VV slice itself is stored
		want      string
	}{
		{"first put", "", "1:1", true, true, "1:1"},
		{"after, same origin", "1:1", "1:2", true, true, "1:2"},
		{"after, new origin", "1:3", "1:3,2:1", true, true, "1:3,2:1"},
		{"after, every origin", "1:1,2:1", "1:2,2:5", true, true, "1:2,2:5"},
		{"equal", "1:2,2:1", "1:2,2:1", false, false, "1:2,2:1"},
		{"before", "1:2,2:1", "1:1", false, false, "1:2,2:1"},
		{"concurrent winner by sum", "1:1", "2:2", true, false, "1:1,2:2"},
		{"concurrent winner by encoding", "1:2,3:1", "2:1,3:2", true, false, "1:2,2:1,3:2"},
		{"concurrent loser by encoding", "2:1,3:2", "1:2,3:1", false, false, "1:2,2:1,3:2"},
		{"concurrent loser absorbs", "2:2,3:1", "1:3", false, false, "1:3,2:2,3:1"},
		{"concurrent winner, disjoint", "5:1", "1:1,9:1", true, false, "1:1,5:1,9:1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStore(0)
			oracle := map[string]VRecord{}
			if tc.stored != "" {
				old := VRecord{Name: "n", Addrs: a1, VV: mustVV(tc.stored)}
				st.Put(old)
				putOracle(oracle, old)
			}
			in := VRecord{Name: "n", Addrs: a2, VV: mustVV(tc.incoming)}
			installed := st.Put(in)
			wantInstalled := putOracle(oracle, VRecord{Name: in.Name, Addrs: in.Addrs, VV: mustVV(tc.incoming)})
			got, _ := st.Get("n")
			want := oracle["n"]
			if installed != wantInstalled || installed != tc.installed {
				t.Fatalf("Put installed = %v, oracle %v, table %v", installed, wantInstalled, tc.installed)
			}
			if got.VV.Encode() != want.VV.Encode() || got.VV.Encode() != tc.want || got.Addrs[0] != want.Addrs[0] {
				t.Fatalf("stored %v %s; oracle stored %v %s; table wants %s",
					got.Addrs, got.VV.Encode(), want.Addrs, want.VV.Encode(), tc.want)
			}
			if verbatim := &got.VV[0] == &in.VV[0]; verbatim != tc.verbatim {
				t.Fatalf("stored the incoming VV slice itself: %v, want %v", verbatim, tc.verbatim)
			}
		})
	}
}

// startCluster boots a fault-free cluster and a fast-timeout client for it.
func startCluster(t *testing.T, shards, replicas int, seed int64) (*Cluster, *Client, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	c, err := Start(ctx, Config{Shards: shards, Replicas: replicas}, faultnet.NewEnv(seed), nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	// Cooldown 1: the first request after an outage probes immediately, so
	// tests need not drive extra traffic to ride out the demand-driven
	// cooldown.
	cl := NewClient(c.Addrs(), ClientConfig{Origin: 1, BreakerCooldown: 1})
	cl.Timeout = 250 * time.Millisecond
	cl.HedgeDelay = 80 * time.Millisecond
	cl.Retries = 0
	cl.Backoff = reliable.Backoff{}
	t.Cleanup(func() { cl.Close(); c.Close(); cancel() })
	return c, cl, cancel
}

// nameOn returns a test name placed on the given shard.
func nameOn(t *testing.T, shards, shard int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		n := fmt.Sprintf("name-%d.test", i)
		if ShardOf(n, shards) == shard {
			return n
		}
	}
	t.Fatal("no name found for shard")
	return ""
}

func TestClusterQuorumWriteRead(t *testing.T) {
	c, cl, _ := startCluster(t, 2, 3, 1)
	ctx := context.Background()
	addrs := []netaddr.Addr{netaddr.MustParseAddr("10.1.2.3")}

	name := nameOn(t, 2, 0)
	vv, err := cl.Update(ctx, name, addrs)
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if vv.Sum() != 1 {
		t.Fatalf("first write vv=%s, want one bump", vv.Encode())
	}
	rec, err := cl.Lookup(ctx, name)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if rec.Stale || len(rec.Addrs) != 1 || rec.Addrs[0] != addrs[0] {
		t.Fatalf("lookup got %+v", rec)
	}
	// Fault-free quorum write reaches every replica of the owning shard.
	for r := 0; r < 3; r++ {
		got, ok := c.Node(0, r).Store.Get(name)
		if !ok || got.Addrs[0] != addrs[0] {
			t.Fatalf("replica %d missing the committed write: %+v ok=%v", r, got, ok)
		}
	}
	// A second update supersedes the first on every replica.
	addrs2 := []netaddr.Addr{netaddr.MustParseAddr("10.9.9.9")}
	if _, err := cl.Update(ctx, name, addrs2); err != nil {
		t.Fatalf("second update: %v", err)
	}
	rec, err = cl.Lookup(ctx, name)
	if err != nil || rec.Addrs[0] != addrs2[0] {
		t.Fatalf("lookup after second update: %+v err=%v", rec, err)
	}
}

// TestReplicaServerCountsReplicationOps: the serve loop's op counters — the
// locind_gns_lookups_total/updates_total families gnsd -obs.addr exports —
// count what a replica actually serves. The cluster client sends nothing
// but vput and vget, so every vput leg is an update, every vget leg a
// lookup, and together they are every request the replicas handled.
func TestReplicaServerCountsReplicationOps(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sm := gns.NewServerMetrics(obs.NewRegistry())
	c, err := Start(ctx, Config{Shards: 2, Replicas: 3}, faultnet.NewEnv(1), sm)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := NewClient(c.Addrs(), ClientConfig{Origin: 1})
	defer cl.Close()
	cl.SetMetrics(NewClientMetrics(obs.NewRegistry()), 0)
	cl.Retries = 0
	legs := func() int64 {
		n := int64(0)
		for s := 0; s < c.Shards(); s++ {
			for r := 0; r < c.Replicas(); r++ {
				n += cl.replicaMetrics(s, r).Legs.Value()
			}
		}
		return n
	}
	for i := 0; i < 5; i++ {
		if _, err := cl.Update(ctx, fmt.Sprintf("name-%d.test", i), []netaddr.Addr{netaddr.MakeAddr(10, 0, 0, byte(i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	vputs := legs()
	for i := 0; i < 5; i++ {
		if _, err := cl.Lookup(ctx, fmt.Sprintf("name-%d.test", i)); err != nil {
			t.Fatal(err)
		}
	}
	vgets := legs() - vputs
	requests, lookups, updates := sm.Requests.Value(), sm.Lookups.Value(), sm.Updates.Value()
	if updates != vputs || lookups != vgets || lookups+updates != requests {
		t.Fatalf("replicas counted requests=%d lookups=%d updates=%d; the client sent %d vput and %d vget legs",
			requests, lookups, updates, vputs, vgets)
	}
}

func TestClusterLookupNotFound(t *testing.T) {
	_, cl, _ := startCluster(t, 1, 3, 2)
	_, err := cl.Lookup(context.Background(), "never-written.test")
	if !errors.Is(err, gns.ErrNotFound) {
		t.Fatalf("err=%v, want ErrNotFound", err)
	}
}

func TestClusterHedgedLookupFailsOver(t *testing.T) {
	c, cl, _ := startCluster(t, 1, 3, 3)
	ctx := context.Background()
	name := nameOn(t, 1, 0)
	if _, err := cl.Update(ctx, name, []netaddr.Addr{netaddr.MustParseAddr("10.0.0.7")}); err != nil {
		t.Fatal(err)
	}

	primary := orderOf(name, 3)[0]
	c.KillReplica(0, primary)

	rec, err := cl.Lookup(ctx, name)
	if err != nil {
		t.Fatalf("hedged lookup: %v", err)
	}
	if rec.Stale {
		t.Fatal("failover lookup marked stale — a live replica answered")
	}
}

func TestClusterBreakerSkipsDeadReplica(t *testing.T) {
	c, cl, _ := startCluster(t, 1, 3, 4)
	var state [3]reliable.BreakerState // each replica's circuit, as its transitions report it
	for r := range state {
		cl.breakers[0][r] = &reliable.Breaker{Threshold: 1, Cooldown: 1000,
			OnTransition: func(_, to reliable.BreakerState) { state[r] = to }}
	}
	ctx := context.Background()
	name := nameOn(t, 1, 0)
	if _, err := cl.Update(ctx, name, []netaddr.Addr{netaddr.MustParseAddr("10.0.0.8")}); err != nil {
		t.Fatal(err)
	}

	primary := orderOf(name, 3)[0]
	c.KillReplica(0, primary)

	// First lookup eats the hedge-delay timeout and opens the breaker.
	if _, err := cl.Lookup(ctx, name); err != nil {
		t.Fatal(err)
	}
	if got := state[primary]; got != reliable.BreakerOpen {
		t.Fatalf("primary breaker %v, want open", got)
	}
	// Subsequent lookups skip the dead replica without a network attempt.
	before := cl.Attempts()
	start := time.Now()
	if _, err := cl.Lookup(ctx, name); err != nil {
		t.Fatal(err)
	}
	if d := cl.Attempts() - before; d != 1 {
		t.Fatalf("lookup with open breaker made %d attempts, want 1", d)
	}
	if elapsed := time.Since(start); elapsed > cl.HedgeDelay {
		t.Fatalf("breaker-skipped lookup took %v — it waited on the dead replica", elapsed)
	}
}

func TestClusterDegradedModeServesStale(t *testing.T) {
	c, cl, _ := startCluster(t, 2, 3, 5)
	ctx := context.Background()
	addrs := []netaddr.Addr{netaddr.MustParseAddr("10.2.3.4")}
	name := nameOn(t, 2, 1)
	if _, err := cl.Update(ctx, name, addrs); err != nil {
		t.Fatal(err)
	}

	c.KillShard(1)

	rec, err := cl.Lookup(ctx, name)
	if err != nil {
		t.Fatalf("degraded lookup: %v", err)
	}
	if !rec.Stale {
		t.Fatal("whole-shard outage must flag the served binding stale")
	}
	if rec.Addrs[0] != addrs[0] {
		t.Fatalf("stale binding %v, want last-known-good %v", rec.Addrs, addrs)
	}
	if cl.StaleServed() != 1 {
		t.Fatalf("StaleServed=%d, want 1", cl.StaleServed())
	}

	// A name never written has no last-known-good: the quorum error surfaces.
	if _, err := cl.Lookup(ctx, nameOn(t, 2, 1)+".other"); err == nil {
		t.Fatal("uncached name on a dead shard should fail")
	}

	// Updates to the dead shard miss quorum.
	if _, err := cl.Update(ctx, name, addrs); !errors.Is(err, gns.ErrNoQuorum) {
		t.Fatalf("update on dead shard: %v, want ErrNoQuorum", err)
	}

	// After heal, service is fresh again.
	c.Heal()
	rec, err = cl.Lookup(ctx, name)
	if err != nil || rec.Stale {
		t.Fatalf("post-heal lookup: %+v err=%v", rec, err)
	}
}

func TestClusterReadYourWrites(t *testing.T) {
	c, cl, _ := startCluster(t, 1, 3, 6)
	ctx := context.Background()
	name := nameOn(t, 1, 0)
	v1 := []netaddr.Addr{netaddr.MustParseAddr("10.0.0.1")}
	v2 := []netaddr.Addr{netaddr.MustParseAddr("10.0.0.2")}
	if _, err := cl.Update(ctx, name, v1); err != nil {
		t.Fatal(err)
	}

	// One replica misses the second write, then becomes the only one
	// reachable: its answer lags the client's committed floor.
	order := orderOf(name, 3)
	lagging := order[0]
	c.KillReplica(0, lagging)
	if _, err := cl.Update(ctx, name, v2); err != nil {
		t.Fatalf("quorum write with one replica down: %v", err)
	}
	c.Heal()
	c.KillReplica(0, order[1])
	c.KillReplica(0, order[2])

	rec, err := cl.Lookup(ctx, name)
	if err != nil {
		t.Fatalf("read-your-writes lookup: %v", err)
	}
	if rec.Stale {
		t.Fatal("read-your-writes answer must not be stale-flagged — it was quorum-committed")
	}
	if rec.Addrs[0] != v2[0] {
		t.Fatalf("lookup regressed to %v; the committed write was %v", rec.Addrs, v2)
	}
}

func TestClusterUpdateRebasesAfterCacheLoss(t *testing.T) {
	c, cl, _ := startCluster(t, 1, 3, 7)
	ctx := context.Background()
	name := nameOn(t, 1, 0)
	a := []netaddr.Addr{netaddr.MustParseAddr("10.3.3.3")}
	if _, err := cl.Update(ctx, name, a); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Update(ctx, name, a); err != nil {
		t.Fatal(err)
	}

	// A second client with no memory of the name (fresh cache, its own
	// origin) writes: its first-bump VV is concurrent with the stored
	// history but loses the tiebreak (shorter), so replicas refuse it and
	// the client must rebase onto the observed history to commit.
	cl2 := NewClient(c.Addrs(), ClientConfig{Origin: 2})
	defer cl2.Close()
	cl2.Timeout = 250 * time.Millisecond
	cl2.Retries = 0
	b := []netaddr.Addr{netaddr.MustParseAddr("10.4.4.4")}
	vv, err := cl2.Update(ctx, name, b)
	if err != nil {
		t.Fatalf("rebased update: %v", err)
	}
	if vv.Get(1) < 2 {
		t.Fatalf("rebase lost the prior history: %s", vv.Encode())
	}
	rec, err := cl.Lookup(ctx, name)
	if err != nil || rec.Addrs[0] != b[0] {
		t.Fatalf("after rebase, lookup=%+v err=%v, want %v", rec, err, b)
	}
}

func TestRepairConvergesDivergedReplicas(t *testing.T) {
	c, cl, _ := startCluster(t, 2, 3, 8)
	ctx := context.Background()
	names := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		names = append(names, fmt.Sprintf("repair-%d.test", i))
	}
	a1 := []netaddr.Addr{netaddr.MustParseAddr("10.5.0.1")}
	a2 := []netaddr.Addr{netaddr.MustParseAddr("10.5.0.2")}
	for _, n := range names {
		if _, err := cl.Update(ctx, n, a1); err != nil {
			t.Fatal(err)
		}
	}

	// One replica per shard misses a round of updates.
	c.KillReplica(0, 1)
	c.KillReplica(1, 2)
	for _, n := range names {
		if _, err := cl.Update(ctx, n, a2); err != nil {
			t.Fatal(err)
		}
	}
	c.Heal()

	if n := Repair(c, nil); n == 0 {
		t.Fatal("repair found nothing to fix across diverged replicas")
	}
	// Every replica of each shard now digests identically.
	for s := 0; s < c.Shards(); s++ {
		ref := replicaDigest(c, s, 0)
		for r := 1; r < c.Replicas(); r++ {
			if got := replicaDigest(c, s, r); got != ref {
				t.Fatalf("shard %d replica %d diverges after repair:\n%s\nvs\n%s", s, r, got, ref)
			}
		}
	}
	// Idempotence: a second pass finds nothing.
	if n := Repair(c, nil); n != 0 {
		t.Fatalf("second repair pass rewrote %d records", n)
	}
}

// replicaDigest renders one replica's store canonically.
func replicaDigest(c *Cluster, shard, replica int) string {
	var b strings.Builder
	c.Node(shard, replica).Store.Digest(&b)
	return b.String()
}

// stubReplica answers every vget with the given response (the request's ID
// echoed), standing in for a replica that serves a record no client can
// parse.
func stubReplica(t *testing.T, resp gns.Response) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := gns.ServePacketConnObserved(context.Background(), stubBackend{resp}, pc.(*net.UDPConn), nil)
	t.Cleanup(func() { srv.Close() })
	return pc.LocalAddr().String()
}

type stubBackend struct{ resp gns.Response }

func (b stubBackend) HandleOp(gns.Request) (gns.Response, bool) { return b.resp, true }

// TestClusterLookupRejectsUnparsableAddress: a reply with an address the
// client cannot parse is a failed leg. It used to come back as a success
// with that address silently missing, and the truncated record became the
// name's read-your-writes floor.
func TestClusterLookupRejectsUnparsableAddress(t *testing.T) {
	good := netaddr.MustParseAddr("10.0.0.9")
	bad := stubReplica(t, gns.Response{OK: true, Name: "n", Addrs: []string{"10.0.0.1", "nope"}, Version: 1, VV: "1:1"})
	ok := stubReplica(t, gns.Response{OK: true, Name: "n", Addrs: []string{good.String()}, Version: 1, VV: "1:1"})
	ctx := context.Background()

	// Every replica serves the bad record: the lookup fails, and says why.
	cl := NewClient([][]string{{bad}}, ClientConfig{Origin: 1})
	defer cl.Close()
	cl.Retries = 0
	if rec, err := cl.Lookup(ctx, "n"); !errors.Is(err, gns.ErrNoQuorum) || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("lookup served by an unparsable replica: rec %+v, err %v", rec, err)
	}
	if _, cached := cl.cache.Get("n"); cached {
		t.Fatal("the unparsable reply was cached as the read-your-writes floor")
	}

	// With a healthy replica last in the name's order, behind two bad ones,
	// the lookup hedges its way to it.
	order := orderOf("n", 3)
	grid := make([]string, 3)
	grid[order[0]], grid[order[1]], grid[order[2]] = bad, bad, ok
	cl2 := NewClient([][]string{grid}, ClientConfig{Origin: 1})
	defer cl2.Close()
	cl2.Retries = 0
	rec, err := cl2.Lookup(ctx, "n")
	if err != nil || len(rec.Addrs) != 1 || rec.Addrs[0] != good {
		t.Fatalf("lookup past two unparsable replicas: rec %+v, err %v", rec, err)
	}
	if got := cl2.Attempts(); got != 3 {
		t.Fatalf("%d attempts, want one per replica", got)
	}
}

// TestClusterConcurrentUpdatesRespectIdleCap: goroutines updating distinct
// names share the client's transport; however many sockets are in flight
// at once, no replica address ever has more than the cap idle.
func TestClusterConcurrentUpdatesRespectIdleCap(t *testing.T) {
	c, cl, _ := startCluster(t, 2, 3, 11)
	ctx := context.Background()
	const writers = 64
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			name := fmt.Sprintf("writer-%02d.test", w)
			for round := 1; round <= 5; round++ {
				if _, err := cl.Update(ctx, name, []netaddr.Addr{netaddr.MakeAddr(10, byte(w), byte(round), 1)}); err != nil {
					errs <- fmt.Errorf("%s round %d: %w", name, round, err)
					return
				}
				for _, row := range c.Addrs() {
					for _, addr := range row {
						if n := cl.transport.IdleSockets(addr); n > gns.MaxIdlePerAddr {
							errs <- fmt.Errorf("%d idle sockets for %s, cap %d", n, addr, gns.MaxIdlePerAddr)
							return
						}
					}
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	idle := 0
	for _, row := range c.Addrs() {
		for _, addr := range row {
			idle += cl.transport.IdleSockets(addr)
		}
	}
	if idle == 0 {
		t.Fatal("no idle sockets after 320 updates: the transport is not pooling")
	}
}

// TestClientRaggedAndEmptyGrid: the grid may come from operator config, so
// its rows need not be equally long and it may be empty. Every replica of a
// longer later row is reachable, and a name with no replica to go to is a
// quorum failure, not a panic.
func TestClientRaggedAndEmptyGrid(t *testing.T) {
	c, _, _ := startCluster(t, 2, 3, 1)
	ragged := [][]string{c.ShardAddrs(0)[:1], c.ShardAddrs(1)}
	cl := NewClient(ragged, ClientConfig{Origin: 2})
	defer cl.Close()
	ctx := context.Background()
	for shard := range ragged {
		name := nameOn(t, 2, shard)
		a := netaddr.MustParseAddr(fmt.Sprintf("10.9.0.%d", shard+1))
		if _, err := cl.Update(ctx, name, []netaddr.Addr{a}); err != nil {
			t.Fatalf("update %q on shard %d of a ragged grid: %v", name, shard, err)
		}
		if rec, err := cl.Lookup(ctx, name); err != nil || len(rec.Addrs) != 1 || rec.Addrs[0] != a {
			t.Fatalf("lookup %q on a ragged grid: %+v, %v", name, rec, err)
		}
	}
	if !cl.breakers[1][2].Allow() {
		t.Fatal("breaker of the longer row's last replica is not closed")
	}

	for _, grid := range [][][]string{nil, {{}}, {{}, {}}} {
		cl := NewClient(grid, ClientConfig{Origin: 1})
		if _, err := cl.Update(ctx, "n", nil); !errors.Is(err, gns.ErrNoQuorum) {
			t.Fatalf("update on grid %v: %v, want ErrNoQuorum", grid, err)
		}
		if _, err := cl.Lookup(ctx, "n"); !errors.Is(err, gns.ErrNoQuorum) {
			t.Fatalf("lookup on grid %v: %v, want ErrNoQuorum", grid, err)
		}
		cl.Close()
	}
}

// TestReplicaRefusesWritesThatSkipTheQuorum: a replica speaks only the
// replication ops. A datagram sent straight to one replica with any other op
// (lookup, update, ping, none) is a bad request and changes nothing. A write
// a replica took outside the quorum would carry a version vector no client
// holds, and the next anti-entropy pass would spread it to every replica,
// over the binding the client committed.
func TestReplicaRefusesWritesThatSkipTheQuorum(t *testing.T) {
	c, cl, _ := startCluster(t, 1, 3, 1)
	ctx := context.Background()
	const name = "alice.phone"
	committed := netaddr.MustParseAddr("10.0.0.1")
	if _, err := cl.Update(ctx, name, []netaddr.Addr{committed}); err != nil {
		t.Fatal(err)
	}
	before := make([]string, c.Replicas())
	for r := range before {
		before[r] = replicaDigest(c, 0, r)
	}

	policy := reliable.Policy{MaxAttempts: 1, PerAttempt: time.Second}
	for _, req := range []gns.Request{
		{Op: "lookup", Name: name},
		{Op: "update", Name: name, Addrs: []string{"10.9.9.9"}},
		{Op: "ping"},
		{Op: "", Name: name},
	} {
		resp, _, err := gns.Exchange(ctx, c.Node(0, 0).Addr(), req, policy)
		if !errors.Is(err, gns.ErrBadRequest) {
			t.Errorf("op %q sent to one replica: reply %+v, err %v; want %v", req.Op, resp, err, gns.ErrBadRequest)
		}
	}
	for r := range before {
		if got := replicaDigest(c, 0, r); got != before[r] {
			t.Errorf("replica %d changed:\n%s\nwas\n%s", r, got, before[r])
		}
	}
	if n := Repair(c, nil); n != 0 {
		t.Errorf("repair rewrote %d records after the raw datagrams", n)
	}
	fresh := NewClient(c.Addrs(), ClientConfig{Origin: 2})
	defer fresh.Close()
	fresh.Timeout = 250 * time.Millisecond
	rec, err := fresh.Lookup(ctx, name)
	if err != nil || len(rec.Addrs) != 1 || rec.Addrs[0] != committed {
		t.Fatalf("fresh client reads %+v, %v; want the committed %v", rec, err, committed)
	}
}

// TestReplicaAcksTheStoredHistoryCanonically: a vput is acknowledged with
// the canonical encoding of the history the replica holds after it. A
// request spelled that way is echoed; any other spelling of the same
// history — origins out of order, a leading zero, a zero counter — and a
// write the stored history already supersedes are encoded afresh.
func TestReplicaAcksTheStoredHistoryCanonically(t *testing.T) {
	c, _, _ := startCluster(t, 1, 1, 1)
	ctx := context.Background()
	policy := reliable.Policy{MaxAttempts: 1, PerAttempt: time.Second}
	for _, tc := range []struct{ sent, acked string }{
		{"2:1,1:1", "1:1,2:1"},
		{"1:1,2:1", "1:1,2:1"},
		{"01:1,2:1", "1:1,2:1"},
		{"1:1,2:1,3:0", "1:1,2:1"},
		{"1:1,2:100", "1:1,2:100"},
		{"2:1", "1:1,2:100"},
	} {
		req := gns.Request{Op: "vput", Name: "echo.test", Addrs: []string{"10.0.0.1"}, VV: tc.sent}
		resp, _, err := gns.Exchange(ctx, c.Node(0, 0).Addr(), req, policy)
		if err != nil || resp.VV != tc.acked {
			t.Errorf("vput %q acked %q, %v; want %q", tc.sent, resp.VV, err, tc.acked)
		}
	}
}
