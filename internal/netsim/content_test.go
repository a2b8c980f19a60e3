package netsim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"locind/internal/topology"
)

func TestContentRegisterValidation(t *testing.T) {
	net := mustNet(t, topology.Chain(5))
	cr := NewContentRouting(net)
	if err := cr.Register("x", nil); err == nil {
		t.Error("empty replica set should fail")
	}
	if err := cr.Register("x", []int{9}); err == nil {
		t.Error("out-of-range replica should fail")
	}
	if err := cr.Register("x", []int{4, 0}); err != nil {
		t.Fatal(err)
	}
	if got := cr.Replicas("x"); len(got) != 2 || got[0] != 0 || got[1] != 4 {
		t.Fatalf("replicas = %v", got)
	}
}

func TestSendBestAnycast(t *testing.T) {
	net := mustNet(t, topology.Chain(9))
	cr := NewContentRouting(net)
	if err := cr.Register("movie", []int{0, 8}); err != nil {
		t.Fatal(err)
	}
	// A source at 2 reaches the replica at 0 in 2 hops, never detouring to
	// the far copy.
	d := cr.SendBest(2, "movie")
	if !d.Delivered || d.Hops != 2 || d.Stretch() != 0 {
		t.Fatalf("delivery = %+v", d)
	}
	// A source at a replica delivers locally.
	d = cr.SendBest(8, "movie")
	if !d.Delivered || d.Hops != 0 {
		t.Fatalf("local delivery = %+v", d)
	}
	// Unknown content fails.
	if d := cr.SendBest(0, "ghost"); d.Delivered {
		t.Fatal("unknown content must not deliver")
	}
}

func TestSendFloodReachesAllReplicas(t *testing.T) {
	net := mustNet(t, topology.BinaryTree(15))
	cr := NewContentRouting(net)
	if err := cr.Register("movie", []int{7, 11, 14}); err != nil {
		t.Fatal(err)
	}
	for src := 0; src < net.N(); src++ {
		fd := cr.SendFlood(src, "movie")
		if !fd.Delivered {
			t.Fatalf("flood from %d did not deliver", src)
		}
		best := cr.SendBest(src, "movie")
		if !best.Delivered {
			t.Fatalf("best from %d did not deliver", src)
		}
		// Flooding's first copy is never slower than best-port, and its
		// total traffic is never below best-port's single copy.
		if src != 7 && src != 11 && src != 14 {
			if fd.FirstHops > best.Hops {
				t.Fatalf("src %d: flood first copy %d hops vs best %d", src, fd.FirstHops, best.Hops)
			}
			if fd.Traffic < best.Hops {
				t.Fatalf("src %d: flood traffic %d below single-copy %d", src, fd.Traffic, best.Hops)
			}
		}
	}
	// Somewhere, flooding must actually cost more traffic than best-port —
	// that is its price.
	extra := false
	for src := 0; src < net.N(); src++ {
		if cr.SendFlood(src, "movie").Traffic > cr.SendBest(src, "movie").Hops {
			extra = true
			break
		}
	}
	if !extra {
		t.Fatal("flooding never spent extra traffic; model broken")
	}
	if fd := cr.SendFlood(0, "ghost"); fd.Delivered {
		t.Fatal("unknown content must not deliver")
	}
}

// TestMoveReplicaUpdateCosts checks the §3.3.1 definitions operationally:
// moving a far replica leaves best ports intact at routers near a stable
// closer replica (best-port update cost < flooding update cost), matching
// the paper's explanation for Figure 11(b).
func TestMoveReplicaUpdateCosts(t *testing.T) {
	net := mustNet(t, topology.Chain(17))
	cr := NewContentRouting(net)
	if err := cr.Register("movie", []int{0, 16}); err != nil {
		t.Fatal(err)
	}
	// Move the far replica slightly: 16 -> 14. Routers 14, 15, 16 change
	// both their best port and their port set. Router 8 is the interesting
	// one: its eligible port set {7, 9} is direction-symmetric and does NOT
	// change, but its best selection flips from the tie-broken left replica
	// to the now-strictly-closer right one — so best-port counts 4 updates
	// while flooding counts 3. This is a genuine (tie-break-induced)
	// counterexample to the paper's §3.3.3 aside that flooding's update
	// cost is "at least as high as" best-port's; in aggregate over random
	// workloads the inequality still holds (see TestContentScenarioStats).
	bestUpd, floodUpd, err := cr.MoveReplica("movie", 16, 14)
	if err != nil {
		t.Fatal(err)
	}
	if bestUpd != 4 || floodUpd != 3 {
		t.Fatalf("updates = %d best, %d flood; want 4, 3", bestUpd, floodUpd)
	}
	if got := cr.Replicas("movie"); got[1] != 14 {
		t.Fatalf("replica set after move = %v", got)
	}
	// Error paths.
	if _, _, err := cr.MoveReplica("ghost", 0, 1); err == nil {
		t.Error("unknown content should fail")
	}
	if _, _, err := cr.MoveReplica("movie", 9, 1); err == nil {
		t.Error("moving a non-replica should fail")
	}
}

// TestUnionFungibility reproduces §3.3.3 end to end: a replica flapping
// between two locations keeps incurring updates under both standard
// strategies, while the union-of-past-locations port set stabilizes after
// one cycle — at the price of permanently flooding both ports.
func TestUnionFungibility(t *testing.T) {
	net := mustNet(t, topology.Chain(9))
	cr := NewContentRouting(net)
	if err := cr.Register("movie", []int{0, 8}); err != nil {
		t.Fatal(err)
	}
	// Track the union port set at the middle router across a flap cycle.
	mid := 4
	union := map[int]bool{}
	addAll := func() {
		for _, p := range cr.portSet(mid, cr.Replicas("movie")) {
			union[p] = true
		}
	}
	addAll()
	grewFirst := false
	for cycle := 0; cycle < 4; cycle++ {
		before := len(union)
		if _, _, err := cr.MoveReplica("movie", 8, 6); err != nil {
			t.Fatal(err)
		}
		addAll()
		if _, _, err := cr.MoveReplica("movie", 6, 8); err != nil {
			t.Fatal(err)
		}
		addAll()
		if cycle == 0 && len(union) >= before {
			grewFirst = true
		}
		if cycle > 0 && len(union) != before {
			t.Fatalf("union port set still growing at cycle %d", cycle)
		}
	}
	if !grewFirst {
		t.Fatal("union set never absorbed the flap")
	}
}

func TestContentScenarioStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := mustNet(t, topology.PreferentialAttachment(60, 2, rng))
	cr := NewContentRouting(net)
	replicas := []int{3, 17, 41}
	if err := cr.Register("movie", replicas); err != nil {
		t.Fatal(err)
	}
	var bestTraffic, floodTraffic, bestUpd, floodUpd int
	moves := 100
	for i := 0; i < moves; i++ {
		src := rng.Intn(net.N())
		bestTraffic += cr.SendBest(src, "movie").Hops
		floodTraffic += cr.SendFlood(src, "movie").Traffic
		// Flap one replica.
		cur := cr.Replicas("movie")
		from := cur[rng.Intn(len(cur))]
		to := rng.Intn(net.N())
		if to == from || contains(cur, to) {
			continue
		}
		b, f, err := cr.MoveReplica("movie", from, to)
		if err != nil {
			t.Fatal(err)
		}
		bestUpd += b
		floodUpd += f
	}
	if !(floodTraffic > bestTraffic) {
		t.Fatalf("flooding traffic %d not above best-port %d", floodTraffic, bestTraffic)
	}
	if !(bestUpd <= floodUpd) {
		t.Fatalf("best updates %d above flooding updates %d", bestUpd, floodUpd)
	}
	t.Logf("traffic: best=%d flood=%d (%.1fx); updates: best=%d flood=%d",
		bestTraffic, floodTraffic, float64(floodTraffic)/float64(bestTraffic), bestUpd, floodUpd)
}

// mapPortSet is portSet as it was built with a map: the oracle the sorted,
// compacted scratch slice is held to.
func (cr *ContentRouting) mapPortSet(r int, replicas []int) []int {
	seen := map[int]bool{}
	for _, rep := range replicas {
		seen[cr.net.ports[rep][r]] = true
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// portSet must equal the map-based oracle at every router for random
// replica sets, sizes 1 to 8 with repeats, on RunContentTraffic's PA-120.
func TestPortSetMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := mustNet(t, topology.PreferentialAttachment(120, 2, rng))
	cr := NewContentRouting(net)
	for trial := 0; trial < 200; trial++ {
		replicas := make([]int, 1+rng.Intn(8))
		for i := range replicas {
			replicas[i] = rng.Intn(net.N())
		}
		for r := 0; r < net.N(); r++ {
			want := cr.mapPortSet(r, replicas)
			if got := cr.portSet(r, replicas); !slices.Equal(got, want) {
				t.Fatalf("trial %d: portSet(%d, %v) = %v, oracle %v", trial, r, replicas, got, want)
			}
		}
	}
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
