package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"time"

	"locind/internal/faultnet"
	"locind/internal/gns"
	"locind/internal/gns/cluster"
	"locind/internal/netaddr"
	"locind/internal/obs"
	"locind/internal/reliable"
)

// The cluster both gns workloads run against: 3 shards × 3 replicas on
// loopback UDP with zero injected faults, preloaded by quorum writes.
const (
	gnsShards   = 3
	gnsReplicas = 3
	gnsTimeout  = time.Second // per replica leg
)

// gnsUpdate is the write use of the cluster path: three sequential replica
// legs per op, so fan-out, stripe locks and Store apply dominate.
var gnsUpdate = workload{
	name:   "gns-update",
	why:    "cluster write path: three sequential replica legs per op, so fan-out, stripe locks and Store apply dominate",
	setups: 3,
	warmup: 2000,
	ops:    135_000,
	tail:   true,
	size:   fullSize,
	new:    func(seed int64, sz sizes) instance { return &gnsRun{seed: seed, size: sz, write: true} },
	layers: gnsUpdateLayers,
}

// gnsLookup is the read use of the same layers: one leg per op, so the
// per-exchange cost (dial, buffer, JSON) dominates. A gain for writes that
// costs reads, or the reverse, shows as one row up and one row down.
var gnsLookup = workload{
	name:   "gns-lookup",
	why:    "cluster read path over the same layers: one leg per op, so per-exchange cost (dial, buffer, JSON) dominates",
	setups: 3,
	warmup: 2000,
	ops:    400_000,
	tail:   true,
	size:   fullSize,
	new:    func(seed int64, sz sizes) instance { return &gnsRun{seed: seed, size: sz} },
	layers: gnsLookupLayers,
}

func gnsName(i int) string { return fmt.Sprintf("bench-%06d.gns", i) }

// gnsAddr is the address generation gen of name i binds to.
func gnsAddr(i, gen int) netaddr.Addr {
	return netaddr.MakeAddr(byte(10+gen%200), byte(i>>16), byte(i>>8), byte(i))
}

type gnsRun struct {
	seed  int64
	size  sizes
	write bool

	stop    context.CancelFunc
	cluster *cluster.Cluster
	client  *cluster.Client
	metrics *cluster.ClientMetrics // traced runs only
	names   []string
	order   []int // seeded permutation of name indices; op i touches order[i % len]
	gen     []int // generation last written per name

	ops      int
	attempts int64 // client network attempts made by measured and warm-up ops
}

// setup starts a fresh cluster and preloads every name with a quorum write.
func (r *gnsRun) setup(ctx context.Context) error {
	r.close()
	cctx, stop := context.WithCancel(ctx)
	r.stop = stop
	c, err := cluster.Start(cctx, cluster.Config{Shards: gnsShards, Replicas: gnsReplicas}, faultnet.NewEnv(r.seed), nil)
	if err != nil {
		return err
	}
	r.cluster = c
	cl := cluster.NewClient(c.Addrs(), cluster.ClientConfig{Origin: 1})
	// No faults are injected, so a timeout can only fire when the box
	// stalls the process. The soak experiment's 25 ms / 10 ms would turn a
	// 50 ms stall — seen about once per million ops on the shared
	// reference VM — into two timed-out legs and a failed quorum; here a
	// stall must show as a slow op, not a failed one.
	cl.Timeout = gnsTimeout
	cl.HedgeDelay = gnsTimeout / 4
	cl.Retries = 0
	cl.Backoff = reliable.Backoff{}
	r.client = cl

	r.names = make([]string, r.size.names)
	r.gen = make([]int, r.size.names)
	for i := range r.names {
		r.names[i] = gnsName(i)
		r.gen[i] = 1
		if _, err := cl.Update(ctx, r.names[i], []netaddr.Addr{gnsAddr(i, 1)}); err != nil {
			return fmt.Errorf("preload %s: %w", r.names[i], err)
		}
	}
	r.order = rand.New(rand.NewSource(r.seed)).Perm(r.size.names)
	return nil
}

func (r *gnsRun) run(ctx context.Context, m *meter, rec *recorder) error {
	if rec != nil {
		// Counting legs, hedges and rejects needs the client's obs
		// handles; the untraced run leaves them nil.
		r.metrics = cluster.NewClientMetrics(obs.NewRegistry())
		r.client.SetMetrics(r.metrics, 0)
	}
	before := r.client.Attempts()
	spanName := "cluster.lookup"
	if r.write {
		spanName = "cluster.update"
	}
	m.loop(func(i int) error {
		idx := r.order[i%len(r.order)]
		id := rec.begin(spanName, -1, i)
		defer rec.end(id)
		if r.write {
			// The binding counts as intended from the moment it is sent:
			// a write that fails must show up as a digest mismatch too.
			r.gen[idx]++
			_, err := r.client.Update(ctx, r.names[idx], []netaddr.Addr{gnsAddr(idx, r.gen[idx])})
			return err
		}
		got, err := r.client.Lookup(ctx, r.names[idx])
		if err != nil {
			return err
		}
		if want := gnsAddr(idx, r.gen[idx]); got.Stale || len(got.Addrs) != 1 || got.Addrs[0] != want {
			return fmt.Errorf("lookup %s returned %v (stale=%v), last written %v", r.names[idx], got.Addrs, got.Stale, want)
		}
		return nil
	})
	r.ops = m.seen
	r.attempts = r.client.Attempts() - before
	return nil
}

// check holds every replica's served bindings to the intended final state.
func (r *gnsRun) check(context.Context) error {
	final := make(map[string][]netaddr.Addr, len(r.names))
	for i, name := range r.names {
		final[name] = []netaddr.Addr{gnsAddr(i, r.gen[i])}
	}
	want, _ := cluster.ExpectedBindingDigest(gnsShards, gnsReplicas, final)
	// A leg that timed out at the client may still be in a replica's
	// socket buffer; give it a moment to land before calling a mismatch.
	var got uint64
	for try := 0; try < 20; try++ {
		if got, _ = r.cluster.BindingDigest(); got == want {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("binding digest %016x, intended final bindings digest %016x", got, want)
}

// counts reports the exact counts of the run, for the layer budget.
func (r *gnsRun) counts(out map[string]metric) {
	if r.ops == 0 {
		return
	}
	out["legs_per_op"] = metric{float64(r.attempts) / float64(r.ops), "count"}
	if m := r.metrics; m != nil {
		out["hedges_per_kop"] = metric{1000 * float64(m.Hedges.Value()) / float64(r.ops), "count"}
		out["breaker_rejects"] = metric{float64(m.BreakerRejects.Value()), "count"}
		out["quorum_failures"] = metric{float64(m.QuorumFailures.Value()), "count"}
	}
}

func (r *gnsRun) close() {
	if r.cluster != nil {
		r.cluster.Close()
		r.stop()
		r.cluster = nil
	}
}

// stubPacketConn is a net.PacketConn that moves no bytes, so that timing a
// faultnet wrapper around it times the wrapper alone.
type stubPacketConn struct{ addr net.Addr }

func (s stubPacketConn) ReadFrom(p []byte) (int, net.Addr, error)  { return len(p), s.addr, nil }
func (s stubPacketConn) WriteTo(p []byte, _ net.Addr) (int, error) { return len(p), nil }
func (s stubPacketConn) Close() error                              { return nil }
func (s stubPacketConn) LocalAddr() net.Addr                       { return s.addr }
func (s stubPacketConn) SetDeadline(time.Time) error               { return nil }
func (s stubPacketConn) SetReadDeadline(time.Time) error           { return nil }
func (s stubPacketConn) SetWriteDeadline(time.Time) error          { return nil }

// gnsSharedLayers times, in isolation, the public function of each layer an
// op passes through inside Client.Update / Client.Lookup. It needs a live
// cluster for gns.Exchange, so it brings up its own small one.
func gnsSharedLayers(ctx context.Context, lc *layerCtx) error {
	n := lc.size.calls
	names := make([]string, n)
	for i := range names {
		names[i] = gnsName(i)
	}
	lc.out["cluster.shardof_ns"] = metric{nsPerCall(n, func() {
		for _, name := range names {
			sink += cluster.ShardOf(name, gnsShards)
		}
	}), "ns"}

	// Wire codec: the request an update leg sends, the response it gets.
	vv := cluster.VV(nil).Bump(1).Bump(1)
	req := gns.Request{Op: "vput", Name: names[0], Addrs: []string{gnsAddr(0, 1).String()}, VV: vv.Encode()}
	var wire []byte
	var err error
	lc.out["gns.encode_ns"] = metric{nsPerCall(n, func() {
		for i := 0; i < n && err == nil; i++ {
			wire, err = json.Marshal(req)
		}
	}), "ns"}
	if err != nil {
		return err
	}
	respWire, err := json.Marshal(gns.Response{OK: true, Name: names[0], Version: 2, VV: vv.Encode()})
	if err != nil {
		return err
	}
	lc.out["gns.decode_ns"] = metric{nsPerCall(n, func() {
		for i := 0; i < n && err == nil; i++ {
			var resp gns.Response
			err = json.Unmarshal(respWire, &resp)
		}
	}), "ns"}
	if err != nil {
		return err
	}
	sink += len(wire)
	lc.out["cluster.vv_roundtrip_ns"] = metric{nsPerCall(n, func() {
		for i := 0; i < n && err == nil; i++ {
			var back cluster.VV
			back, err = cluster.ParseVV(vv.Bump(1).Encode())
			sink += len(back)
		}
	}), "ns"}
	if err != nil {
		return err
	}

	// Store apply, without a socket in front of it.
	store := cluster.NewStore(1 << 32)
	for i, name := range names {
		store.HandleOp(gns.Request{Op: "vput", Name: name, Addrs: []string{gnsAddr(i, 1).String()}, VV: "1:1"})
	}
	put := gns.Request{Op: "vput", Addrs: []string{gnsAddr(0, 2).String()}, VV: "1:2"}
	bad := 0
	lc.out["cluster.store_vput_ns"] = metric{nsPerCall(n, func() {
		for _, name := range names {
			put.Name = name
			if resp, ok := store.HandleOp(put); !ok || !resp.OK {
				bad++
			}
		}
	}), "ns"}
	lc.out["cluster.store_vget_ns"] = metric{nsPerCall(n, func() {
		for _, name := range names {
			if resp, ok := store.HandleOp(gns.Request{Op: "vget", Name: name}); !ok || !resp.OK {
				bad++
			}
		}
	}), "ns"}
	if bad > 0 {
		return fmt.Errorf("gns layers: %d Store.HandleOp calls failed", bad)
	}

	pol := reliable.Policy{MaxAttempts: 1}
	lc.out["reliable.policy_do_ns"] = metric{nsPerCall(n, func() {
		for i := 0; i < n && err == nil; i++ {
			_, err = pol.Do(ctx, func(context.Context) error { return nil })
		}
	}), "ns"}
	if err != nil {
		return err
	}

	// With zero injected faults the only faultnet layer on a cluster
	// node's socket is the partition wrapper.
	peer := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	pconn := faultnet.NewEnv(lc.seed).NewPartition().WrapPacketConn(stubPacketConn{addr: peer})
	buf := make([]byte, 128)
	lc.out["faultnet.packet_passthrough_ns"] = metric{nsPerCall(n, func() {
		for i := 0; i < n && err == nil; i++ {
			if _, err = pconn.WriteTo(buf, peer); err == nil {
				_, _, err = pconn.ReadFrom(buf)
			}
		}
	}), "ns"}
	if err != nil {
		return err
	}

	// One exchange to one node: what a lookup does once and an update
	// three times.
	cctx, stop := context.WithCancel(ctx)
	defer stop()
	c, err := cluster.Start(cctx, cluster.Config{Shards: 1, Replicas: 1}, faultnet.NewEnv(lc.seed), nil)
	if err != nil {
		return err
	}
	defer c.Close()
	c.Node(0, 0).Store.HandleOp(gns.Request{Op: "vput", Name: names[0], Addrs: []string{gnsAddr(0, 1).String()}, VV: "1:1"})
	leg := reliable.Policy{MaxAttempts: 1, PerAttempt: gnsTimeout}
	get := gns.Request{Op: "vget", Name: names[0]}
	exchange, err := medianCallNanos(5*n, func() error {
		_, _, err := gns.Exchange(ctx, c.Node(0, 0).Addr(), get, leg)
		return err
	})
	lc.out["gns.exchange_us"] = metric{exchange / 1e3, "us"}
	return err
}

// unaccountedPct is the share of an op's median time that the isolated
// layer timings do not explain.
func unaccountedPct(opMillis, accountedNanos float64) float64 {
	return 100 * (opMillis - accountedNanos/1e6) / opMillis
}

// gnsLayers derives one gns workload's counts and remainder; whichever of
// the two comes first in a traced run also takes the isolated timings they
// share.
func gnsLayers(ctx context.Context, lc *layerCtx, legsName, unaccountedName string, vvRoundTrips float64) error {
	if _, done := lc.out["gns.exchange_us"]; !done {
		if err := gnsSharedLayers(ctx, lc); err != nil {
			return err
		}
	}
	info := lc.traced.Info
	legs := info["legs_per_op"].Value
	lc.out[legsName] = metric{legs, "count"}
	for _, name := range []string{"hedges_per_kop", "breaker_rejects", "quorum_failures"} {
		// Summed over both workloads: any of them above zero means a run
		// was not the fault-free run it was meant to be.
		sum := lc.out["cluster."+name]
		sum.Value, sum.Unit = sum.Value+info[name].Value, "count"
		lc.out["cluster."+name] = sum
	}
	accounted := lc.out["cluster.shardof_ns"].Value + vvRoundTrips*lc.out["cluster.vv_roundtrip_ns"].Value +
		legs*lc.out["gns.exchange_us"].Value*1e3
	lc.out[unaccountedName] = metric{unaccountedPct(lc.plain.Info[mP50].Value, accounted), "%"}
	return nil
}

func gnsUpdateLayers(ctx context.Context, lc *layerCtx) error {
	return gnsLayers(ctx, lc, "cluster.legs_per_update", "cluster.update_unaccounted_pct", 1)
}

func gnsLookupLayers(ctx context.Context, lc *layerCtx) error {
	return gnsLayers(ctx, lc, "cluster.legs_per_lookup", "cluster.lookup_unaccounted_pct", 0)
}
