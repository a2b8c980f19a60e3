package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"locind/internal/faultnet"
	"locind/internal/gns"
	"locind/internal/netaddr"
	"locind/internal/obs"
	"locind/internal/reliable"
)

// chaosOutcome is everything a chaos run produces that a replay must
// reproduce exactly.
type chaosOutcome struct {
	stateHash   uint64
	stateText   string
	bindingHash uint64
	bindingText string
	attempts    int64
	staleServed int64
	quorumFails int
	netStats    faultnet.Stats
}

const (
	chaosShards   = 3
	chaosReplicas = 3
	chaosNames    = 120
	chaosSeed     = 99
)

func chaosName(i int) string { return fmt.Sprintf("chaos-%d.test", i) }

func chaosAddr(i, gen int) netaddr.Addr {
	return netaddr.MakeAddr(10, byte(gen), byte(i>>8), byte(i))
}

// runChaosScenario drives the acceptance scenario: seed everything, kill
// one full shard (all R replicas) plus one replica of another shard under
// seeded per-packet faults, keep serving, heal, repair, re-commit what the
// outage refused, and digest the converged state.
func runChaosScenario(t *testing.T, seed int64) chaosOutcome {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env := faultnet.NewEnv(seed)
	cfg := Config{
		Shards:   chaosShards,
		Replicas: chaosReplicas,
		Faults:   faultnet.PacketFaults{Drop: 0.01},
	}
	c, err := Start(ctx, cfg, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cl := NewClient(c.Addrs(), ClientConfig{Origin: 1, BreakerCooldown: 4})
	defer cl.Close()
	// No per-leg retries: a dropped datagram fails the leg over to the next
	// replica instead of burning a second timeout, and the driver-level
	// mustUpdate loop re-commits anything that misses quorum.
	cl.Timeout = 150 * time.Millisecond
	cl.HedgeDelay = 60 * time.Millisecond
	cl.Retries = 0
	cl.Backoff = reliable.Backoff{}

	mustUpdate := func(i, gen int) {
		t.Helper()
		name := chaosName(i)
		for try := 0; ; try++ {
			if _, err := cl.Update(ctx, name, []netaddr.Addr{chaosAddr(i, gen)}); err == nil {
				return
			} else if try >= 20 {
				t.Fatalf("update %q never committed: %v", name, err)
			}
		}
	}

	// Phase A: seed every name.
	for i := 0; i < chaosNames; i++ {
		mustUpdate(i, 1)
	}

	// Chaos window: one full shard dies (all R replicas — the acceptance
	// fault), and one replica of another shard dies too, so anti-entropy
	// has a diverged-but-quorate shard to reconcile as well.
	const deadShard = 1
	c.KillShard(deadShard)
	c.KillReplica((deadShard+1)%chaosShards, 0)

	quorumFails := 0
	var failed []int
	for i := 0; i < chaosNames; i += 7 {
		_, err := cl.Update(ctx, chaosName(i), []netaddr.Addr{chaosAddr(i, 2)})
		switch {
		case err == nil:
			if ShardOf(chaosName(i), chaosShards) == deadShard {
				t.Fatalf("update %d committed on the dead shard", i)
			}
		case errors.Is(err, gns.ErrNoQuorum):
			quorumFails++
			failed = append(failed, i)
		default:
			t.Fatalf("update %d: unexpected error %v", i, err)
		}
	}
	if quorumFails == 0 {
		t.Fatal("no update landed on the dead shard — scenario is not exercising quorum loss")
	}

	// Degraded serving: every name resolves, fresh or stale-flagged. A name
	// on the dead shard can never be fresh (no replica is reachable), so it
	// must come back stale; a name on a quorate shard is usually fresh but
	// may stale-serve too when per-packet drops kill every leg of one
	// lookup — still within the fresh-or-stale-flagged contract.
	for i := 0; i < chaosNames; i++ {
		name := chaosName(i)
		rec, err := cl.Lookup(ctx, name)
		if err != nil {
			t.Fatalf("lookup %q during outage: %v", name, err)
		}
		if !rec.Stale && ShardOf(name, chaosShards) == deadShard {
			t.Fatalf("lookup %q fresh but its whole shard is dead", name)
		}
		if len(rec.Addrs) != 1 {
			t.Fatalf("lookup %q: %v", name, rec.Addrs)
		}
	}
	if cl.StaleServed() == 0 {
		t.Fatal("whole-shard outage served no stale bindings — degraded mode never engaged")
	}

	// Heal, reconcile, and re-commit what the outage refused.
	c.Heal()
	if Repair(c, nil) == 0 {
		t.Fatal("post-heal repair found nothing — the outage should have diverged replicas")
	}
	for _, i := range failed {
		mustUpdate(i, 2)
	}
	// The re-committed writes reached a quorum, not necessarily every
	// replica (per-packet drops); one more pass settles the stragglers.
	Repair(c, nil)

	// Converged serving: everything fresh.
	for i := 0; i < chaosNames; i++ {
		rec, err := cl.Lookup(ctx, chaosName(i))
		if err != nil || rec.Stale {
			t.Fatalf("post-heal lookup %q: %+v err=%v", chaosName(i), rec, err)
		}
	}

	out := chaosOutcome{
		attempts:    cl.Attempts(),
		staleServed: cl.StaleServed(),
		quorumFails: quorumFails,
		netStats:    env.Stats(),
	}
	out.stateHash, out.stateText = c.StateDigest()
	out.bindingHash, out.bindingText = c.BindingDigest()
	return out
}

// runFaultFree applies the scenario's intended final state to a pristine
// cluster: no faults, no partition, no retries needed.
func runFaultFree(t *testing.T) chaosOutcome {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := Start(ctx, Config{Shards: chaosShards, Replicas: chaosReplicas}, faultnet.NewEnv(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := NewClient(c.Addrs(), ClientConfig{Origin: 1})
	defer cl.Close()
	cl.Timeout = time.Second
	for i := 0; i < chaosNames; i++ {
		if _, err := cl.Update(ctx, chaosName(i), []netaddr.Addr{chaosAddr(i, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < chaosNames; i += 7 {
		if _, err := cl.Update(ctx, chaosName(i), []netaddr.Addr{chaosAddr(i, 2)}); err != nil {
			t.Fatal(err)
		}
	}
	var out chaosOutcome
	out.stateHash, out.stateText = c.StateDigest()
	out.bindingHash, out.bindingText = c.BindingDigest()
	return out
}

// TestChaosAcceptanceWholeShardOutage is the PR's acceptance test: a
// seeded faultnet partition kills one full shard (all R replicas); the
// cluster client serves every name fresh or stale-flagged throughout; and
// after heal plus anti-entropy the cluster converges byte-identically to
// the fault-free reference state.
func TestChaosAcceptanceWholeShardOutage(t *testing.T) {
	chaos := runChaosScenario(t, chaosSeed)
	ref := runFaultFree(t)
	if chaos.bindingHash != ref.bindingHash || chaos.bindingText != ref.bindingText {
		t.Fatalf("healed cluster did not converge to the fault-free state:\n--- chaos ---\n%s\n--- fault-free ---\n%s",
			chaos.bindingText, ref.bindingText)
	}
}

// TestChaosSameSeedReplays re-runs the whole scenario under the same seed
// and demands identical behaviour: same network attempts, same stale
// serves, same quorum failures, same injected-fault tallies, and a
// byte-identical final state digest, version vectors included.
func TestChaosSameSeedReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("replay doubles the chaos run")
	}
	a := runChaosScenario(t, chaosSeed)
	b := runChaosScenario(t, chaosSeed)
	if a.stateHash != b.stateHash || a.stateText != b.stateText {
		t.Fatalf("state digests diverge across same-seed runs:\n--- run A ---\n%s\n--- run B ---\n%s", a.stateText, b.stateText)
	}
	if a.attempts != b.attempts {
		t.Fatalf("attempts diverge: %d vs %d", a.attempts, b.attempts)
	}
	if a.staleServed != b.staleServed {
		t.Fatalf("stale serves diverge: %d vs %d", a.staleServed, b.staleServed)
	}
	if a.quorumFails != b.quorumFails {
		t.Fatalf("quorum failures diverge: %d vs %d", a.quorumFails, b.quorumFails)
	}
	if a.netStats != b.netStats {
		t.Fatalf("fault stats diverge: %+v vs %+v", a.netStats, b.netStats)
	}
}

// TestHedgedLookupTraceTree asserts the causal-trace contract: one hedged
// lookup produces one trace tree — a single root span, every replica leg a
// child of that root, every network attempt a child of its leg.
func TestHedgedLookupTraceTree(t *testing.T) {
	c, cl, _ := startCluster(t, 1, 3, 11)
	ctx := context.Background()
	name := nameOn(t, 1, 0)
	if _, err := cl.Update(ctx, name, []netaddr.Addr{netaddr.MustParseAddr("10.0.0.9")}); err != nil {
		t.Fatal(err)
	}

	// Attach the tracer only now: the trace holds exactly one lookup.
	tracer := obs.NewTracer(1, 256)
	cl.Tracer = tracer
	primary := orderOf(name, 3)[0]
	c.KillReplica(0, primary)
	if _, err := cl.Lookup(ctx, name); err != nil {
		t.Fatal(err)
	}

	spans := tracer.Spans()
	var root *obs.SpanRecord
	legs := map[uint64]bool{}
	attempts := 0
	for i := range spans {
		s := spans[i]
		switch s.Name {
		case "gnsc-lookup":
			if root != nil {
				t.Fatalf("two roots in one lookup trace: %+v", spans)
			}
			root = &spans[i]
		case "replica":
			legs[s.ID] = true
		}
	}
	if root == nil {
		t.Fatalf("no root span: %+v", spans)
	}
	if root.Parent != 0 {
		t.Fatalf("root has a parent: %+v", root)
	}
	if len(legs) < 2 {
		t.Fatalf("hedged lookup produced %d replica legs, want >=2 (dead primary + failover)", len(legs))
	}
	for _, s := range spans {
		switch s.Name {
		case "replica":
			if s.Parent != root.ID {
				t.Fatalf("replica leg %x not parented on the lookup root: %+v", s.ID, s)
			}
			if s.Trace != root.Trace {
				t.Fatalf("replica leg %x in a different trace: %+v", s.ID, s)
			}
		case "attempt":
			attempts++
			if !legs[s.Parent] {
				t.Fatalf("attempt span %x not parented on a replica leg: %+v", s.ID, s)
			}
			if s.Trace != root.Trace {
				t.Fatalf("attempt span %x in a different trace: %+v", s.ID, s)
			}
		}
	}
	if attempts < 2 {
		t.Fatalf("trace shows %d attempts, want >=2", attempts)
	}
}
