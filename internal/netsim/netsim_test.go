package netsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"locind/internal/analytic"
	"locind/internal/faultnet"
	"locind/internal/gns/cluster"
	"locind/internal/netaddr"
	"locind/internal/obs"
	"locind/internal/topology"
)

func mustNet(t *testing.T, g *topology.Graph) *Network {
	t.Helper()
	n, err := NewNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewNetworkErrors(t *testing.T) {
	if _, err := NewNetwork(topology.New(0)); err == nil {
		t.Error("empty should fail")
	}
	g := topology.New(3)
	g.AddEdge(0, 1) //nolint:errcheck
	if _, err := NewNetwork(g); err == nil {
		t.Error("disconnected should fail")
	}
}

func TestHomeAgentTriangleRouting(t *testing.T) {
	net := mustNet(t, topology.Chain(5))
	h := NewHomeAgent(net)
	if got := h.Attach("u", 0); got != 1 {
		t.Fatalf("attach cost = %d", got)
	}
	// Endpoint moves to the far end; home stays at 0.
	if got := h.Move("u", 4); got != 1 {
		t.Fatalf("move cost = %d", got)
	}
	// A sender at router 4 must detour all the way through the home.
	d := h.Send(4, "u")
	if !d.Delivered || d.Hops != 8 || d.Shortest != 0 || d.Stretch() != 8 {
		t.Fatalf("delivery = %+v", d)
	}
	// A sender at the home sees no stretch.
	d = h.Send(0, "u")
	if d.Stretch() != 0 {
		t.Fatalf("home-side stretch = %d", d.Stretch())
	}
	if _, ok := h.Where("nobody"); ok {
		t.Fatal("unknown endpoint should be unknown")
	}
	if d := h.Send(0, "nobody"); d.Delivered {
		t.Fatal("sending to unknown endpoint must fail")
	}
	// Moving an unknown endpoint attaches it.
	if got := h.Move("fresh", 2); got != 1 {
		t.Fatalf("move-as-attach = %d", got)
	}
	if home := h.home["fresh"]; home != 2 {
		t.Fatalf("fresh home = %d", home)
	}
}

func TestResolutionDirectPath(t *testing.T) {
	net := mustNet(t, topology.Chain(5))
	r := NewResolution(net, MapResolver{})
	r.Attach("u", 0)
	r.Move("u", 4)
	d := r.Send(0, "u")
	if !d.Delivered || d.Stretch() != 0 || d.Hops != 4 || d.SetupCost != 1 {
		t.Fatalf("delivery = %+v", d)
	}
	if d := r.Send(0, "ghost"); d.Delivered || d.SetupCost != 1 {
		t.Fatalf("unknown name delivery = %+v", d)
	}
	if cur, ok := r.Where("u"); !ok || cur != 4 {
		t.Fatalf("Where = %d %v", cur, ok)
	}
}

func TestNameRoutingForwarding(t *testing.T) {
	net := mustNet(t, topology.BinaryTree(15))
	nr := NewNameRouting(net)
	if got := nr.Attach("u", 7); got != 15 {
		t.Fatalf("attach updates = %d", got)
	}
	// Every source reaches the endpoint with zero stretch.
	for src := 0; src < net.N(); src++ {
		d := nr.Send(src, "u")
		if !d.Delivered || d.Stretch() != 0 {
			t.Fatalf("src %d: %+v", src, d)
		}
	}
	nr.Move("u", 14)
	for src := 0; src < net.N(); src++ {
		d := nr.Send(src, "u")
		if !d.Delivered || d.Stretch() != 0 {
			t.Fatalf("after move, src %d: %+v", src, d)
		}
	}
	if d := nr.Send(0, "ghost"); d.Delivered {
		t.Fatal("unknown name must not deliver")
	}
	if got := nr.Move("ghost2", 3); got != net.N() {
		t.Fatal("move-as-attach must install everywhere")
	}
}

// connectedGraph draws a random connected graph on n nodes: a
// preferential-attachment backbone guarantees connectivity, plus noise edges.
func connectedGraph(rng *rand.Rand, n int) *topology.Graph {
	g := topology.PreferentialAttachment(n, 1+rng.Intn(2), rng)
	for extra := rng.Intn(n); extra > 0; extra-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b && !g.HasEdge(a, b) {
			g.AddEdge(a, b) //nolint:errcheck
		}
	}
	return g
}

// displaced is the per-router compare NameRouting.Move memoizes: how many
// routers' next hops toward from and toward to differ.
func displaced(next [][]int, from, to int) int {
	c := 0
	for r := range next[from] {
		if next[from][r] != next[to][r] {
			c++
		}
	}
	return c
}

// Every (from, to) move on Table 1's four graphs at n = 20 and 63, a ring
// and a preferential-attachment graph updates exactly the routers whose
// NextHops rows for from and to differ: on the first ask and from the memo.
func TestMoveMatchesNextHopCompare(t *testing.T) {
	for _, n := range []int{20, 63} {
		for _, g := range []*topology.Graph{
			topology.Chain(n), topology.Clique(n), topology.BinaryTree(n), topology.Star(n),
			topology.Ring(n), topology.PreferentialAttachment(n, 2, rand.New(rand.NewSource(int64(n)))),
		} {
			next := g.NextHops()
			nr := NewNameRouting(mustNet(t, g))
			for pass := 0; pass < 2; pass++ {
				for from := range next {
					for to := range next {
						nr.Attach("u", from)
						if got, want := nr.Move("u", to), displaced(next, from, to); got != want {
							t.Fatalf("n %d, %d routers, pass %d: move %d->%d updates %d, want %d",
								n, g.N(), pass, from, to, got, want)
						}
					}
				}
			}
		}
	}
}

// The simulator's per-move update counts are exact (see
// TestMoveMatchesNextHopCompare); driven by the uniform mobility process
// their mean must land on the §5 enumeration within Monte Carlo error.
func TestNameRoutingUpdatesMatchAnalytic(t *testing.T) {
	type graph struct {
		name string
		g    *topology.Graph
	}
	graphs := []graph{
		{"chain", topology.Chain(21)},
		{"clique", topology.Clique(16)},
		{"star", topology.Star(20)},
		{"tree", topology.BinaryTree(15)},
		{"ring", topology.Ring(24)},
	}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 5; i++ {
		graphs = append(graphs, graph{fmt.Sprintf("random-%d", i), connectedGraph(rng, 8+rng.Intn(40))})
	}
	for _, tc := range graphs {
		net := mustNet(t, tc.g)
		nr := NewNameRouting(net)
		rng := rand.New(rand.NewSource(9))
		nr.Attach("u", rng.Intn(net.N()))
		moves := 30000
		total := 0
		for i := 0; i < moves; i++ {
			total += nr.Move("u", rng.Intn(net.N()))
		}
		got := float64(total) / float64(moves) / float64(net.N())
		want := analytic.ExactNameBased(tc.g).UpdateCost
		if math.Abs(got-want) > 0.05*want+0.005 {
			t.Errorf("%s: simulated agg cost %v vs analytic %v", tc.name, got, want)
		}
	}
}

// Likewise, measured indirection stretch must match the analytic expected
// distance when homes and locations are uniform.
func TestHomeAgentStretchMatchesAnalytic(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *topology.Graph
	}{
		{"chain", topology.Chain(31)},
		{"clique", topology.Clique(20)},
		{"tree", topology.BinaryTree(31)},
		{"star", topology.Star(30)},
		{"ring", topology.Ring(24)},
	} {
		net := mustNet(t, tc.g)
		rng := rand.New(rand.NewSource(5))
		want := analytic.ExactIndirection(tc.g).Stretch

		// E[dist(H, L)] with H and L uniform: fresh endpoints draw a uniform
		// home, and a packet sent from the home travels dist(home, home) +
		// dist(home, cur) = dist(home, cur) hops.
		samples := 0
		sum := 0.0
		for trial := 0; trial < 2000; trial++ {
			h := NewHomeAgent(net)
			home := rng.Intn(net.N())
			h.Attach("u", home)
			for s := 0; s < 10; s++ {
				cur := rng.Intn(net.N())
				h.Move("u", cur)
				d := h.Send(home, "u")
				sum += float64(d.Hops) // = dist(home, cur)
				samples++
			}
		}
		got := sum / float64(samples)
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("%s: measured E[dist(H,L)] = %v vs analytic %v", tc.name, got, want)
		}
	}
}

func TestSendDuringHandoff(t *testing.T) {
	net := mustNet(t, topology.Chain(9))
	nr := NewNameRouting(net)
	nr.Attach("u", 0)

	// Endpoint moves 0 -> 8. A packet injected at t0=0 from router 4 heads
	// for the old location and stays ahead of the update wavefront the
	// whole way: it arrives at router 0 after the endpoint left — a real
	// handoff loss, exactly what base name-based routing suffers without a
	// strategy layer.
	d := nr.SendDuringHandoff(4, "u", 0, 8, 0)
	if d.Delivered {
		t.Fatalf("packet racing the wavefront should be lost: %+v", d)
	}
	// The same packet injected once the wavefront has passed its source
	// (t0 >= dist(8,4)=4) follows updated entries straight to the new
	// location with zero stretch.
	d = nr.SendDuringHandoff(4, "u", 0, 8, 4)
	if !d.Delivered || d.Stretch() != 0 {
		t.Fatalf("post-wavefront packet: %+v", d)
	}
	// When the new location sits between the sender and the old one, the
	// packet crosses the wavefront mid-path and is captured at the new
	// location — delivered, and on a chain with zero stretch (the capture
	// point lies on the direct path). Endpoint moves 0 -> 3, sender at 7.
	d = nr.SendDuringHandoff(7, "u", 0, 3, 0)
	if !d.Delivered || d.Stretch() != 0 {
		t.Fatalf("captured packet: %+v", d)
	}
	// Fleeing packets are never caught (wavefront and packet move at the
	// same speed), so a far-side sender injecting at t0=0 always loses —
	// the quantitative reason base NDN-style routing needs smooth-handoff
	// machinery.
	d = nr.SendDuringHandoff(6, "u", 0, 8, 1)
	if d.Delivered {
		t.Fatalf("fleeing packet should be lost: %+v", d)
	}
}

func TestScenarioCompare(t *testing.T) {
	g := topology.Chain(31)
	net := mustNet(t, g)
	sc := Scenario{Moves: 400, SendsPerMove: 4, HandoffProbes: 2}
	ms := Compare(net, MapResolver{}, sc, 11)
	if len(ms) != 3 {
		t.Fatalf("architectures = %d", len(ms))
	}
	byName := map[string]Metrics{}
	for _, m := range ms {
		byName[m.Arch] = m
		if m.DeliveredFrac < 0.99 {
			t.Errorf("%s delivered %v", m.Arch, m.DeliveredFrac)
		}
	}
	ind := byName["indirection"]
	res := byName["name-resolution"]
	nbr := byName["name-based-routing"]
	// The §5 trade-off, measured from packets:
	if ind.UpdatesPerMove != 1 || res.UpdatesPerMove != 1 {
		t.Error("addressing-assisted architectures must update one entity per move")
	}
	if !(ind.MeanStretch > 1) {
		t.Errorf("indirection stretch = %v, want substantial on a chain", ind.MeanStretch)
	}
	if res.MeanStretch != 0 || nbr.MeanStretch != 0 {
		t.Error("resolution and name routing must have zero data-path stretch")
	}
	if !(nbr.AggUpdateCost > 0.2 && nbr.AggUpdateCost < 0.5) {
		t.Errorf("name routing agg cost = %v, want ≈1/3 on a chain", nbr.AggUpdateCost)
	}
	if res.MeanSetupCost != 1 {
		t.Errorf("resolution setup cost = %v", res.MeanSetupCost)
	}
	if nbr.HandoffAttempts == 0 || nbr.HandoffSuccess <= 0 {
		t.Errorf("handoff probes missing: %+v", nbr)
	}
	t.Logf("handoff: success=%.2f stretch=%.2f", nbr.HandoffSuccess, nbr.HandoffStretch)
}

func TestScenarioDeterminism(t *testing.T) {
	net := mustNet(t, topology.Ring(12))
	sc := Scenario{Moves: 100, SendsPerMove: 2}
	a := sc.Run(net, NewNameRouting(net), rand.New(rand.NewSource(3)))
	b := sc.Run(net, NewNameRouting(net), rand.New(rand.NewSource(3)))
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func BenchmarkNameRoutingMove(b *testing.B) {
	net, err := NewNetwork(topology.Grid(16, 16))
	if err != nil {
		b.Fatal(err)
	}
	nr := NewNameRouting(net)
	nr.Attach("u", 0)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nr.Move("u", rng.Intn(net.N()))
	}
}

// TestBreadcrumbRepairsHandoffLoss verifies the forwarding-pointer repair:
// every packet that pure name-based routing loses during a handoff is
// delivered (with detour stretch) once the departure router keeps a pointer
// — the custodian/indirection-point idea the paper cites for NDN-style
// architectures.
func TestBreadcrumbRepairsHandoffLoss(t *testing.T) {
	net := mustNet(t, topology.Chain(9))
	nr := NewNameRouting(net)
	nr.Attach("u", 0)

	// The canonical loss from TestSendDuringHandoff: src 4, move 0 -> 8,
	// injected at t0=0; the packet wins the race to the old location.
	lost := nr.SendDuringHandoff(4, "u", 0, 8, 0)
	if lost.Delivered {
		t.Fatal("precondition: pure name routing must lose this packet")
	}
	nr.Breadcrumb(true)
	repaired := nr.SendDuringHandoff(4, "u", 0, 8, 0)
	if !repaired.Delivered {
		t.Fatalf("breadcrumb should repair the loss: %+v", repaired)
	}
	// The repair costs detour hops: 4 to old location 0, then 8 more to
	// the new location = 12 hops vs shortest 4.
	if repaired.Hops != 12 || repaired.Stretch() != 8 {
		t.Fatalf("repaired delivery = %+v, want 12 hops / stretch 8", repaired)
	}
	// Converged-state behaviour is unchanged.
	if d := nr.SendDuringHandoff(4, "u", 0, 8, 100); !d.Delivered || d.Stretch() != 0 {
		t.Fatalf("late packet with breadcrumbs: %+v", d)
	}
}

// With breadcrumbs on, the scenario's handoff success rate must reach 100%
// on any topology, at the price of positive mean handoff stretch.
func TestBreadcrumbScenario(t *testing.T) {
	net := mustNet(t, topology.Chain(31))
	sc := Scenario{Moves: 300, SendsPerMove: 1, HandoffProbes: 3}

	pure := NewNameRouting(net)
	mPure := sc.Run(net, pure, rand.New(rand.NewSource(7)))

	crumbs := NewNameRouting(net)
	crumbs.Breadcrumb(true)
	mCrumbs := sc.Run(net, crumbs, rand.New(rand.NewSource(7)))

	if mPure.HandoffSuccess >= 1 {
		t.Fatalf("pure name routing should lose some handoff packets, success=%v", mPure.HandoffSuccess)
	}
	if mCrumbs.HandoffSuccess != 1 {
		t.Fatalf("breadcrumbs should deliver every handoff packet, success=%v", mCrumbs.HandoffSuccess)
	}
	if mCrumbs.HandoffStretch <= mPure.HandoffStretch {
		t.Fatalf("repair must cost stretch: %v vs %v", mCrumbs.HandoffStretch, mPure.HandoffStretch)
	}
	t.Logf("handoff: pure success=%.2f stretch=%.2f; breadcrumb success=%.2f stretch=%.2f",
		mPure.HandoffSuccess, mPure.HandoffStretch, mCrumbs.HandoffSuccess, mCrumbs.HandoffStretch)
}

// clusterResolver puts the real name service — a loopback gns cluster behind
// its quorum-writing, hedging client — under the Resolution architecture's
// Resolver. Router locators are encoded as addresses in a reserved /8.
type clusterResolver struct{ cl *cluster.Client }

func (r clusterResolver) ResolveUpdate(name string, router int) error {
	loc := netaddr.MakeAddr(127, byte(router>>16), byte(router>>8), byte(router))
	_, err := r.cl.Update(context.Background(), name, []netaddr.Addr{loc})
	return err
}

func (r clusterResolver) ResolveLookup(name string) (int, error) {
	rec, err := r.cl.Lookup(context.Background(), name)
	if err != nil {
		return 0, err
	}
	_, b, c, d := rec.Addrs[0].Octets()
	return int(b)<<16 | int(c)<<8 | int(d), nil
}

// TestResolutionOverGNS runs the resolution architecture through the real
// replicated name service: mobility still costs one (quorum) update, data
// paths stay direct, and a replica failure inside the quorum is invisible
// to senders.
func TestResolutionOverGNS(t *testing.T) {
	net := mustNet(t, topology.Chain(9))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc, err := cluster.Start(ctx, cluster.Config{Shards: 2, Replicas: 3}, faultnet.NewEnv(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	newClient := func(origin uint64) *cluster.Client {
		cl := cluster.NewClient(svc.Addrs(), cluster.ClientConfig{Origin: origin, BreakerCooldown: 1})
		cl.Timeout, cl.HedgeDelay, cl.Retries = 100*time.Millisecond, 40*time.Millisecond, 0
		t.Cleanup(cl.Close)
		return cl
	}
	m := cluster.NewClientMetrics(obs.NewRegistry())
	cl := newClient(1)
	cl.SetMetrics(m, 0)
	res := NewResolution(net, clusterResolver{cl})

	if got := res.Attach("u", 0); got != 1 {
		t.Fatalf("attach cost = %d", got)
	}
	res.Move("u", 8)
	d := res.Send(0, "u")
	if !d.Delivered || d.Hops != 8 || d.Stretch() != 0 {
		t.Fatalf("delivery = %+v", d)
	}
	// One replica of the name's set fails: the architecture keeps working.
	shard := cluster.ShardOf("u", 2)
	svc.KillReplica(shard, 0)
	res.Move("u", 4)
	d = res.Send(2, "u")
	if !d.Delivered || d.Hops != 2 {
		t.Fatalf("delivery with degraded service = %+v", d)
	}
	// Losing the whole replica set surfaces as failed sends to a sender that
	// never resolved the name, not as wrong deliveries.
	svc.KillShard(shard)
	d = NewResolution(net, clusterResolver{newClient(2)}).Send(2, "u")
	if d.Delivered {
		t.Fatal("a lookup no replica answers must not deliver")
	}
	if updates, lookups := m.Updates.Value(), m.Lookups.Value(); updates != 3 || lookups == 0 {
		t.Fatalf("service stats = %d updates, %d lookups", updates, lookups)
	}
}

// Multiple endpoints coexist independently in one name-routing plane.
func TestNameRoutingMultipleEndpoints(t *testing.T) {
	net := mustNet(t, topology.Grid(5, 5))
	nr := NewNameRouting(net)
	eps := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(8))
	at := map[string]int{}
	for _, ep := range eps {
		at[ep] = rng.Intn(net.N())
		nr.Attach(ep, at[ep])
	}
	for step := 0; step < 200; step++ {
		ep := eps[rng.Intn(len(eps))]
		to := rng.Intn(net.N())
		nr.Move(ep, to)
		at[ep] = to
		// Every endpoint stays reachable with zero stretch from everywhere.
		for _, probe := range eps {
			src := rng.Intn(net.N())
			d := nr.Send(src, probe)
			if !d.Delivered || d.Stretch() != 0 {
				t.Fatalf("step %d: endpoint %q from %d: %+v", step, probe, src, d)
			}
			if cur, _ := nr.Where(probe); cur != at[probe] {
				t.Fatalf("endpoint %q tracked at %d, expected %d", probe, cur, at[probe])
			}
		}
	}
}

// Where returns ep's current attachment as each architecture records it: the
// tests' window on the state Attach and Move leave behind.

func (h *HomeAgent) Where(ep string) (int, bool) {
	r, ok := h.cur[ep]
	return r, ok
}

func (r *Resolution) Where(ep string) (int, bool) {
	cur, err := r.res.ResolveLookup(ep)
	return cur, err == nil
}

func (nr *NameRouting) Where(ep string) (int, bool) {
	if at, ok := nr.cur[ep]; ok {
		return *at, true
	}
	return 0, false
}
