package bgp

import (
	"math/rand"
	"testing"
	"time"

	"locind/internal/netaddr"
)

func TestLiveCollectorApply(t *testing.T) {
	lc := NewLiveCollector("test")
	p := netaddr.MustParsePrefix("10.1.0.0/16")

	// First announcement installs a best route: one change.
	n, err := lc.Apply(UpdateMsg{Peer: 7, Announce: []WireRoute{
		{Prefix: "10.1.0.0/16", Rel: "peer", ASPath: []int{7, 20, 42}},
	}})
	if err != nil || n != 1 {
		t.Fatalf("first apply = %d, %v", n, err)
	}
	if port, ok := lc.Port(p.Nth(5)); !ok || port != 7 {
		t.Fatalf("port = %d, %v", port, ok)
	}
	// A worse route from another peer changes nothing.
	n, err = lc.Apply(UpdateMsg{Peer: 9, Announce: []WireRoute{
		{Prefix: "10.1.0.0/16", Rel: "provider", ASPath: []int{9, 42}},
	}})
	if err != nil || n != 0 {
		t.Fatalf("worse route apply = %d, %v", n, err)
	}
	// A better route (customer) flips the best: one change.
	n, err = lc.Apply(UpdateMsg{Peer: 3, Announce: []WireRoute{
		{Prefix: "10.1.0.0/16", Rel: "customer", ASPath: []int{3, 42}},
	}})
	if err != nil || n != 1 {
		t.Fatalf("better route apply = %d, %v", n, err)
	}
	// Implicit withdraw: the same peer re-announces with a longer path;
	// best falls back... customer still wins regardless of length against
	// peers, so no best change, but the stored route must be replaced.
	n, err = lc.Apply(UpdateMsg{Peer: 3, Announce: []WireRoute{
		{Prefix: "10.1.0.0/16", Rel: "customer", ASPath: []int{3, 8, 8, 8, 42}},
	}})
	if err != nil || n != 0 {
		t.Fatalf("implicit withdraw apply = %d, %v", n, err)
	}
	if prefixes, routes, _ := lc.Snapshot(); prefixes != 1 || routes != 3 {
		t.Fatalf("snapshot = %d prefixes, %d routes", prefixes, routes)
	}
	// Withdrawing the customer route falls back to the peer route.
	n, err = lc.Apply(UpdateMsg{Peer: 3, Withdraw: []string{"10.1.0.0/16"}})
	if err != nil || n != 1 {
		t.Fatalf("withdraw apply = %d, %v", n, err)
	}
	if port, _ := lc.Port(p.Nth(5)); port != 7 {
		t.Fatalf("after withdraw port = %d", port)
	}
	// Withdrawing everything removes the entry.
	lc.Apply(UpdateMsg{Peer: 7, Withdraw: []string{"10.1.0.0/16"}}) //nolint:errcheck
	lc.Apply(UpdateMsg{Peer: 9, Withdraw: []string{"10.1.0.0/16"}}) //nolint:errcheck
	if _, ok := lc.Port(p.Nth(5)); ok {
		t.Fatal("fully withdrawn prefix still forwards")
	}
}

func TestLiveCollectorApplyErrors(t *testing.T) {
	lc := NewLiveCollector("test")
	if _, err := lc.Apply(UpdateMsg{Peer: 1, Announce: []WireRoute{{Prefix: "bogus", Rel: "peer", ASPath: []int{1}}}}); err == nil {
		t.Error("bad prefix should fail")
	}
	if _, err := lc.Apply(UpdateMsg{Peer: 1, Announce: []WireRoute{{Prefix: "10.0.0.0/8", Rel: "frenemy", ASPath: []int{1}}}}); err == nil {
		t.Error("bad rel should fail")
	}
	if _, err := lc.Apply(UpdateMsg{Peer: 1, Announce: []WireRoute{{Prefix: "10.0.0.0/8", Rel: "peer"}}}); err == nil {
		t.Error("empty path should fail")
	}
	if _, err := lc.Apply(UpdateMsg{Peer: 1, Withdraw: []string{"nope"}}); err == nil {
		t.Error("bad withdraw prefix should fail")
	}
}

// TestLiveCollectorApplyIsAllOrNothing: a message whose second announce or
// whose withdraw does not parse must leave the collector as it found it. It
// used to return after adding the first route to the RIB and before
// refreshing the FIB, so Snapshot counted a route Port could not find.
func TestLiveCollectorApplyIsAllOrNothing(t *testing.T) {
	good := WireRoute{Prefix: "10.1.0.0/16", Rel: "peer", ASPath: []int{7, 3}}
	for name, m := range map[string]UpdateMsg{
		"second announce bad": {Peer: 7, Announce: []WireRoute{good, {Prefix: "bogus", Rel: "peer", ASPath: []int{7}}}},
		"withdraw bad":        {Peer: 7, Announce: []WireRoute{good}, Withdraw: []string{"nope"}},
	} {
		lc := NewLiveCollector("test")
		if _, err := lc.Apply(m); err == nil {
			t.Fatalf("%s: Apply accepted the message", name)
		}
		prefixes, routes, applied := lc.Snapshot()
		_, forwards := lc.Port(netaddr.MustParsePrefix("10.1.0.0/16").Nth(5))
		if prefixes != 0 || routes != 0 || applied != 0 || forwards {
			t.Fatalf("%s: rejected message left %d prefixes, %d routes, %d applied, forwards=%v",
				name, prefixes, routes, applied, forwards)
		}
		// The same routes in a well-formed message land in RIB and FIB alike.
		if _, err := lc.Apply(UpdateMsg{Peer: 7, Announce: []WireRoute{good}}); err != nil {
			t.Fatal(err)
		}
		if port, ok := lc.Port(netaddr.MustParsePrefix("10.1.0.0/16").Nth(5)); !ok || port != 7 {
			t.Fatalf("%s: well-formed follow-up forwards to %d, %v", name, port, ok)
		}
	}
}

// TestLivePathMatchesBatchPath streams a synthesized collector's full table
// over real TCP sessions and checks the live FIB forwards identically to
// the batch-built one.
func TestLivePathMatchesBatchPath(t *testing.T) {
	g, pt := testInternet(t, 4)
	cols, err := BuildCollectors(g, pt, RouteViewsSpecs()[:1], rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	batch := cols[0]

	lc := NewLiveCollector(batch.Name)
	if err := lc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	err = StreamCollectorTables(batch, func(peer int, routes []Route) error {
		fs, err := DialFeed(lc.Addr(), peer)
		if err != nil {
			return err
		}
		defer fs.Close()
		// Chunk announcements to exercise framing.
		for i := 0; i < len(routes); i += 500 {
			end := i + 500
			if end > len(routes) {
				end = len(routes)
			}
			if err := fs.Announce(routes[i:end]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for ingestion to drain, then close.
	wantRoutes := batch.RIB.NumRoutes()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, routes, _ := lc.Snapshot()
		if routes == wantRoutes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d of %d routes before deadline", routes, wantRoutes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	lc.Close()
	if errs := lc.Errs(); len(errs) != 0 {
		t.Fatalf("session errors: %v", errs)
	}

	for as := 0; as < g.N(); as += 11 {
		a := pt.AddrIn(as, 9)
		p1, ok1 := batch.FIB.Port(a)
		p2, ok2 := lc.Port(a)
		if ok1 != ok2 || p1 != p2 {
			t.Fatalf("live FIB diverges at AS%d: %d,%v vs %d,%v", as, p1, ok1, p2, ok2)
		}
	}
}

// TestChurnUpdateCost drives route churn through the live collector and
// confirms the §3 interpretation: only churn that flips the best route
// registers as an update.
func TestChurnUpdateCost(t *testing.T) {
	lc := NewLiveCollector("churn")
	base := UpdateMsg{Peer: 5, Announce: []WireRoute{
		{Prefix: "20.0.0.0/16", Rel: "peer", ASPath: []int{5, 42}},
	}}
	if _, err := lc.Apply(base); err != nil {
		t.Fatal(err)
	}
	// Backup route flapping behind the stable best: zero update cost.
	flapUpdates := 0
	for i := 0; i < 10; i++ {
		n, err := lc.Apply(UpdateMsg{Peer: 8, Announce: []WireRoute{
			{Prefix: "20.0.0.0/16", Rel: "provider", ASPath: []int{8, 30 + i, 42}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		flapUpdates += n
		n, err = lc.Apply(UpdateMsg{Peer: 8, Withdraw: []string{"20.0.0.0/16"}})
		if err != nil {
			t.Fatal(err)
		}
		flapUpdates += n
	}
	if flapUpdates != 0 {
		t.Fatalf("backup flap caused %d best changes", flapUpdates)
	}
	// Best-route flapping: every cycle costs two updates.
	n1, _ := lc.Apply(UpdateMsg{Peer: 2, Announce: []WireRoute{
		{Prefix: "20.0.0.0/16", Rel: "customer", ASPath: []int{2, 42}},
	}})
	n2, _ := lc.Apply(UpdateMsg{Peer: 2, Withdraw: []string{"20.0.0.0/16"}})
	if n1 != 1 || n2 != 1 {
		t.Fatalf("best flap = %d, %d", n1, n2)
	}
}
