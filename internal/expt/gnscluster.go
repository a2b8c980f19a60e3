package expt

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"locind/internal/faultnet"
	"locind/internal/gns"
	"locind/internal/gns/cluster"
	"locind/internal/netaddr"
	"locind/internal/obs"
	"locind/internal/reliable"
)

// GNSClusterResult is one chaos soak of the sharded, replicated GNS
// cluster: a deterministic load generator drives distinct names through
// quorum writes and hedged lookups while a seeded partition kills one full
// shard and one extra replica, then the partition heals, anti-entropy
// reconciles, and the refused writes re-commit. Everything in here is a
// counter or a digest — no timings — so a fixed seed renders fixed bytes.
type GNSClusterResult struct {
	Seed             int64
	Names            int
	Shards, Replicas int

	SeedRetries    int   // driver-level re-commits during the seeding phase
	QuorumFailures int   // chaos-window updates refused for lack of quorum
	StaleServed    int64 // chaos-window lookups degraded to last-known-good
	FreshServed    int   // chaos-window lookups answered by a live replica
	Hedges         int64 // lookup legs beyond the primary replica
	BreakerRejects int64 // replica legs skipped by an open circuit
	BreakerOpens   int64 // circuit-open transitions
	Repaired       int   // replica records rewritten by the post-heal pass
	RepairedSettle int   // stragglers settled by the second pass
	Recommitted    int   // refused chaos-window updates committed post-heal
	Attempts       int64 // total network attempts across the run
	Converged      bool  // final bindings == fault-free reference bindings
	BindingHash    uint64
	StateHash      uint64
	Net            faultnet.Stats

	// SeriesChecks are the obs.SeriesCheck verdicts over the soak's sampled
	// series (ticked at deterministic points in the schedule, never by a
	// clock); ChecksOK is their conjunction.
	SeriesChecks []obs.CheckResult
	ChecksOK     bool
}

// gnsClusterScale fixes the load shape at either CI scale or the full
// soak: the issue's >=1M distinct names.
func gnsClusterScale(quick bool) (names, shards, replicas int) {
	if quick {
		return 20_000, 3, 3
	}
	return 1_000_000, 4, 3
}

// RunGNSClusterObserved boots the cluster on loopback under seeded
// per-datagram faults, runs the chaos schedule, and verifies convergence
// against the in-memory fault-free reference. Observability is wired
// through when smp is non-nil: the client, replica-server and
// injected-fault metrics land on smp's registry and smp is ticked at fixed
// points in the schedule (per phase, and every few hundred names inside
// the sweeps), so the dashboard's per-replica series fill in while the
// soak runs. Sampling is schedule-driven, not clock-driven: the same seed
// takes the same number of ticks, and the soak's digest output is
// byte-identical with observability on or off.
func RunGNSClusterObserved(seed int64, quick bool, smp *obs.Sampler) (GNSClusterResult, error) {
	names, shards, replicas := gnsClusterScale(quick)
	res := GNSClusterResult{Seed: seed, Names: names, Shards: shards, Replicas: replicas}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env := faultnet.NewEnv(seed)
	cfg := cluster.Config{
		Shards:   shards,
		Replicas: replicas,
		// Keep the drop rate low: every drop costs one client timeout, and
		// at soak scale timeout burn — not throughput — is the budget.
		Faults: faultnet.PacketFaults{Drop: 0.0002},
	}
	if smp == nil {
		smp = obs.NewSampler(obs.NewRegistry(), 0)
	}
	env.SetMetrics(faultnet.NewMetrics(smp.Registry()))
	c, err := cluster.Start(ctx, cfg, env, gns.NewServerMetrics(smp.Registry()))
	if err != nil {
		return res, err
	}
	defer c.Close()

	m := cluster.NewClientMetrics(smp.Registry())
	cl := cluster.NewClient(c.Addrs(), cluster.ClientConfig{
		Origin: 1,
		// Demand-driven cooldown sized to the run: a dead replica is probed
		// about 64 times over the whole name sweep instead of per lookup.
		BreakerCooldown: max(8, names/64),
	})
	defer cl.Close()
	cl.SetMetrics(m, 2*names) // bounded, but ample: degraded mode must hold every name
	cl.Timeout = 25 * time.Millisecond
	cl.HedgeDelay = 10 * time.Millisecond
	cl.Retries = 0
	cl.Backoff = reliable.Backoff{}

	// Schedule-driven sampling: one tick every tickEvery names keeps the
	// series resolution independent of scale (~256 samples per sweep), and
	// keeps the tick count a pure function of the seed's schedule. The
	// counters these checks watch must only ever grow; a decrease means a
	// lost or double-registered handle.
	tickEvery := max(1, names/256)
	smp.Check("gnsc-lookups-monotone", "locind_gnscluster_lookups_total", obs.MonotoneNonDecreasing{})
	smp.Check("gnsc-updates-monotone", "locind_gnscluster_updates_total", obs.MonotoneNonDecreasing{})
	smp.Check("gnsc-stale-bounded", "locind_gnscluster_stale_served_total",
		obs.Bounded{Min: 0, Max: float64(2 * names)})

	name := func(i int) string { return fmt.Sprintf("soak-%07d.gns", i) }
	addrOf := func(i, gen int) netaddr.Addr {
		return netaddr.MakeAddr(byte(10+gen), byte(i>>16), byte(i>>8), byte(i))
	}
	commit := func(i, gen int) (retries int, err error) {
		for try := 0; ; try++ {
			if _, err := cl.Update(ctx, name(i), []netaddr.Addr{addrOf(i, gen)}); err == nil {
				return try, nil
			} else if try >= 50 {
				return try, fmt.Errorf("expt: gns-cluster: %q never committed: %w", name(i), err)
			}
		}
	}

	// Phase 1 — seed every name (driver retries ride out per-packet drops).
	for i := 0; i < names; i++ {
		retries, err := commit(i, 1)
		if err != nil {
			return res, err
		}
		res.SeedRetries += retries
		if i%tickEvery == 0 {
			smp.Tick()
		}
	}

	// Phase 2 — chaos window: one full shard dies (all R replicas), plus
	// one replica of the next shard, then the generator keeps going: every
	// 7th name is re-bound, every name is looked up.
	deadShard := 1 % shards
	c.KillShard(deadShard)
	c.KillReplica((deadShard+1)%shards, 0)

	var refused []int
	for i := 0; i < names; i += 7 {
		_, err := cl.Update(ctx, name(i), []netaddr.Addr{addrOf(i, 2)})
		switch {
		case err == nil:
		case errors.Is(err, gns.ErrNoQuorum):
			res.QuorumFailures++
			refused = append(refused, i)
		default:
			return res, fmt.Errorf("expt: gns-cluster: chaos update %d: %w", i, err)
		}
		if i%(7*tickEvery) == 0 {
			smp.Tick()
		}
	}
	for i := 0; i < names; i++ {
		rec, err := cl.Lookup(ctx, name(i))
		if err != nil {
			return res, fmt.Errorf("expt: gns-cluster: chaos lookup %d unserved: %w", i, err)
		}
		if !rec.Stale {
			res.FreshServed++
		}
		if i%tickEvery == 0 {
			smp.Tick()
		}
	}

	// Phase 3 — heal, reconcile, re-commit what the outage refused, and
	// settle quorum-but-not-everywhere writes with a second pass. The
	// breaker reset models the operator signal that the partition is fixed:
	// without it the dead shard's circuits (cooldown sized to the sweep)
	// would gate the re-commits on hundreds of rejected requests each.
	c.Heal()
	cl.ResetBreakers()
	res.Repaired = cluster.Repair(c, m)
	for _, i := range refused {
		retries, err := commit(i, 2)
		if err != nil {
			return res, err
		}
		res.SeedRetries += retries
		res.Recommitted++
	}
	res.RepairedSettle = cluster.Repair(c, m)

	// Convergence: the cluster's binding digest must equal the fault-free
	// reference computed straight from the intended final state.
	final := make(map[string][]netaddr.Addr, names)
	for i := 0; i < names; i++ {
		gen := 1
		if i%7 == 0 {
			gen = 2
		}
		final[name(i)] = []netaddr.Addr{addrOf(i, gen)}
	}
	wantHash, wantText := cluster.ExpectedBindingDigest(shards, replicas, final)
	var gotText string
	res.BindingHash, gotText = c.BindingDigest()
	res.Converged = res.BindingHash == wantHash && gotText == wantText
	res.StateHash, _ = c.StateDigest()

	res.StaleServed = cl.StaleServed()
	res.Attempts = cl.Attempts()
	res.Hedges = m.Hedges.Value()
	res.BreakerRejects = m.BreakerRejects.Value()
	res.BreakerOpens = m.BreakerOpens.Value()
	res.Net = env.Stats()

	// Final tick and verdicts: the check count and outcomes are functions of
	// the schedule, so the Render line stays byte-identical per seed.
	smp.Tick()
	res.SeriesChecks = smp.EvalChecks()
	res.ChecksOK = true
	for _, chk := range res.SeriesChecks {
		res.ChecksOK = res.ChecksOK && chk.OK
	}
	return res, nil
}

// Render prints the soak readout.
func (r GNSClusterResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "GNS cluster chaos soak (seed %d): %d names over %d shards x %d replicas\n",
		r.Seed, r.Names, r.Shards, r.Replicas)
	fmt.Fprintf(&b, "  seeding          : %d names committed, %d driver retries\n", r.Names, r.SeedRetries)
	fmt.Fprintf(&b, "  chaos window     : shard kill (all %d replicas) + 1 extra replica\n", r.Replicas)
	fmt.Fprintf(&b, "    updates        : %d refused by quorum loss (re-committed after heal: %d)\n",
		r.QuorumFailures, r.Recommitted)
	fmt.Fprintf(&b, "    lookups        : %d fresh, %d stale-flagged last-known-good, 0 unserved\n",
		r.FreshServed, r.StaleServed)
	fmt.Fprintf(&b, "    failover       : %d hedged legs, %d breaker rejects, %d circuit opens\n",
		r.Hedges, r.BreakerRejects, r.BreakerOpens)
	fmt.Fprintf(&b, "  anti-entropy     : %d records repaired post-heal, %d settled by second pass\n",
		r.Repaired, r.RepairedSettle)
	checksVerdict := "all OK"
	if !r.ChecksOK {
		checksVerdict = "FAILING"
	}
	fmt.Fprintf(&b, "  series checks    : %d evaluated, %s\n", len(r.SeriesChecks), checksVerdict)
	fmt.Fprintf(&b, "  network          : %d attempts; faults injected %+v\n", r.Attempts, r.Net)
	verdict := "MATCHES the fault-free reference"
	if !r.Converged {
		verdict = "DIVERGES from the fault-free reference"
	}
	fmt.Fprintf(&b, "  convergence      : binding digest %016x %s (state digest %016x)\n",
		r.BindingHash, verdict, r.StateHash)
	b.WriteString("  (same seed: the chaos schedule, fault stream and digests replay\n")
	b.WriteString("   deterministically; attempt/hedge tallies also replay on a quiet host,\n")
	b.WriteString("   where no timeout races real loopback latency)\n")
	return b.String()
}
