package vantage

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/faultnet"
	"locind/internal/netaddr"
	"locind/internal/reliable"
)

// chaosTimelines builds a small deterministic deployment for chaos runs.
func chaosTimelines(t *testing.T, hours, sites int) []cdn.Timeline {
	t.Helper()
	acfg := asgraph.DefaultSynthConfig()
	acfg.Tier2 = 60
	acfg.Stubs = 500
	g, err := asgraph.Synthesize(acfg, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := bgp.NewPrefixTable(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cdn.DefaultConfig()
	ccfg.PopularDomains = 6
	ccfg.UnpopularDomains = 3
	dep, err := cdn.Generate(g, pt, ccfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	tls := dep.Timelines(hours, rand.New(rand.NewSource(4)))
	if len(tls) > sites {
		tls = tls[:sites]
	}
	return tls
}

// chaosController starts the collector behind a fault-injecting listener.
func chaosController(t *testing.T, env *faultnet.Env, faults faultnet.StreamFaults) *Controller {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := ServeController(context.Background(), faultnet.WrapListener(ln, env, faults))
	t.Cleanup(func() { ctrl.Close() })
	return ctrl
}

// vantageChaosOutcome is what one campaign observes, for fault-free and
// same-seed comparison.
type vantageChaosOutcome struct {
	reports    int
	attempts   int64
	discarded  int
	dupCommits int
	stats      faultnet.Stats
	merged     map[string][]netaddr.Addr // "name@hour" -> union
}

// runVantageChaos runs one full campaign against a faulty collector and
// snapshots everything a determinism check needs.
func runVantageChaos(t *testing.T, tls []cdn.Timeline, nodes, retries int, faults faultnet.StreamFaults, envSeed, jitterSeed int64) vantageChaosOutcome {
	t.Helper()
	env := faultnet.NewEnv(envSeed)
	env.SetSleep(func(time.Duration) {})
	ctrl := chaosController(t, env, faults)
	cp := &Campaign{
		Controller: ctrl.Addr(),
		Nodes:      nodes,
		View:       PartialView(4),
		Retries:    retries,
		Backoff:    reliable.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond, Jitter: 0.5},
		Rand:       rand.New(rand.NewSource(jitterSeed)),
		Sleep:      func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := cp.Run(ctx, tls); err != nil {
		t.Fatalf("campaign did not converge: %v", err)
	}
	ctrl.Close()

	merged := map[string][]netaddr.Addr{}
	for i := range tls {
		tl := &tls[i]
		for h := 0; h < tl.Hours; h++ {
			merged[fmt.Sprintf("%s@%d", tl.Site.Name, h)] = ctrl.MergedSet(tl.Site.Name, h)
		}
	}
	return vantageChaosOutcome{
		reports:    ctrl.ReportCount(),
		attempts:   cp.Attempts(),
		discarded:  ctrl.Discarded(),
		dupCommits: ctrl.DuplicateCommits(),
		stats:      env.Stats(),
		merged:     merged,
	}
}

// TestVantageChaosConvergesUnderResets is the headline claim for the
// measurement campaign: with connections refused and reset mid-stream, every
// node's redial-and-replay eventually commits, and the merged union is
// byte-for-byte the fault-free union — dead connections contributed nothing.
func TestVantageChaosConvergesUnderResets(t *testing.T) {
	tls := chaosTimelines(t, 24, 8)
	clean := runVantageChaos(t, tls, 8, 0, faultnet.StreamFaults{}, 1, 2)
	dirty := runVantageChaos(t, tls, 8, 25, faultnet.StreamFaults{
		Refuse:        0.2,
		Reset:         0.3,
		ResetAfterMin: 1,
		ResetAfterMax: 2000,
	}, 5, 4)

	if dirty.stats.Refused+dirty.stats.Reset == 0 {
		t.Fatal("faults injected nothing")
	}
	if dirty.attempts <= clean.attempts {
		t.Fatalf("chaos campaign made %d attempts vs clean %d", dirty.attempts, clean.attempts)
	}
	if dirty.discarded == 0 {
		t.Fatal("no mid-campaign death ever discarded staged reports")
	}
	// The union must converge exactly: same committed report count, same
	// address set at every (name, hour).
	if dirty.reports != clean.reports {
		t.Fatalf("chaos committed %d reports, fault-free %d", dirty.reports, clean.reports)
	}
	for k, want := range clean.merged {
		got := dirty.merged[k]
		if len(got) != len(want) {
			t.Fatalf("%s: union %v != fault-free %v", k, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: union diverged at %d: %v vs %v", k, i, got, want)
			}
		}
	}
	// And the union matches ground truth, as in the fault-free test.
	for i := range tls {
		tl := &tls[i]
		for _, h := range []int{0, 12, 23} {
			want := tl.SetAt(h)
			got := dirty.merged[fmt.Sprintf("%s@%d", tl.Site.Name, h)]
			if len(got) != len(want) {
				t.Fatalf("site %q hour %d: merged %d addrs, truth %d", tl.Site.Name, h, len(got), len(want))
			}
		}
	}
}

// TestVantageChaosDeterministicReplay: one sequential node, same seeds, same
// observable outcome — attempt counts, fault counts, commit bookkeeping, and
// the merged union itself.
func TestVantageChaosDeterministicReplay(t *testing.T) {
	tls := chaosTimelines(t, 24, 4)
	faults := faultnet.StreamFaults{Refuse: 0.2, Reset: 0.3, ResetAfterMin: 1, ResetAfterMax: 2000}
	a := runVantageChaos(t, tls, 1, 40, faults, 7, 8)
	b := runVantageChaos(t, tls, 1, 40, faults, 7, 8)
	if a.attempts != b.attempts || a.discarded != b.discarded || a.dupCommits != b.dupCommits {
		t.Fatalf("same-seed runs diverged: attempts %d/%d discarded %d/%d dups %d/%d",
			a.attempts, b.attempts, a.discarded, b.discarded, a.dupCommits, b.dupCommits)
	}
	if a.stats != b.stats {
		t.Fatalf("fault streams diverged: %+v vs %+v", a.stats, b.stats)
	}
	if a.reports != b.reports {
		t.Fatalf("reports %d vs %d", a.reports, b.reports)
	}
	for k, want := range a.merged {
		got := b.merged[k]
		if len(got) != len(want) {
			t.Fatalf("%s: %v vs %v", k, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s diverged across same-seed runs", k)
			}
		}
	}
	if a.attempts <= 1 {
		t.Fatalf("attempts = %d; faults never forced a replay", a.attempts)
	}
}

// TestNodeDiesMidCampaignExcluded pins the transactional contract directly:
// a node that streams half a campaign and drops dead contributes nothing —
// the union holds exactly the surviving node's observations.
func TestNodeDiesMidCampaignExcluded(t *testing.T) {
	ctrl, err := StartController(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	dying, err := Dial(ctx, ctrl.Addr(), "pl000")
	if err != nil {
		t.Fatal(err)
	}
	poison := netaddr.MustParseAddr("192.0.2.66")
	for h := 0; h < 6; h++ {
		if err := dying.Report(ctx, h, "x.example.com", []netaddr.Addr{poison}); err != nil {
			t.Fatal(err)
		}
	}
	dying.conn.Close() // died before Bye: no commit

	survivor, err := Dial(ctx, ctrl.Addr(), "pl001")
	if err != nil {
		t.Fatal(err)
	}
	good := netaddr.MustParseAddr("10.0.0.1")
	if err := survivor.Report(ctx, 0, "x.example.com", []netaddr.Addr{good}); err != nil {
		t.Fatal(err)
	}
	if err := survivor.Close(ctx); err != nil {
		t.Fatal(err)
	}
	ctrl.Close()

	set := ctrl.MergedSet("x.example.com", 0)
	if len(set) != 1 || set[0] != good {
		t.Fatalf("dead node corrupted the union: %v", set)
	}
	if ctrl.Discarded() != 1 {
		t.Fatalf("Discarded = %d, want 1", ctrl.Discarded())
	}
	if ctrl.ReportCount() != 1 {
		t.Fatalf("ReportCount = %d, want 1 (staged reports must not count)", ctrl.ReportCount())
	}
}

// TestDuplicateCampaignCommitDeduplicated pins first-commit-wins: a node
// replaying its whole campaign because the Bye ack was lost is recognised
// and skipped, never double-counted.
func TestDuplicateCampaignCommitDeduplicated(t *testing.T) {
	ctrl, err := StartController(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	addr := netaddr.MustParseAddr("10.0.0.1")
	for replay := 0; replay < 2; replay++ {
		n, err := Dial(ctx, ctrl.Addr(), "pl000")
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Report(ctx, 0, "x.example.com", []netaddr.Addr{addr}); err != nil {
			t.Fatal(err)
		}
		if err := n.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	ctrl.Close()
	if ctrl.ReportCount() != 1 {
		t.Fatalf("ReportCount = %d, want 1 (replay must dedup)", ctrl.ReportCount())
	}
	if ctrl.DuplicateCommits() != 1 {
		t.Fatalf("DuplicateCommits = %d, want 1", ctrl.DuplicateCommits())
	}
}

// TestCampaignContextCancellation: a cancelled context aborts the campaign
// promptly with the context error, not a hang.
func TestCampaignContextCancellation(t *testing.T) {
	ctrl, err := StartController(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tls := chaosTimelines(t, 4, 2)
	err = Sweep(ctx, ctrl.Addr(), 2, tls, nil)
	if err == nil {
		t.Fatal("cancelled campaign must error")
	}
}

// Sweep and the three counters below are how these tests start a campaign
// and read its footprint; vantaged builds its own Campaign and reads none.

// Sweep runs a full measurement campaign with default reliability settings:
// numNodes vantage points, two redial-and-replay retries each, modest
// backoff. Use a Campaign directly to tune the policy.
func Sweep(ctx context.Context, controllerAddr string, numNodes int, tls []cdn.Timeline, view ViewFunc) error {
	cp := &Campaign{
		Controller: controllerAddr,
		Nodes:      numNodes,
		View:       view,
		Retries:    2,
		Backoff:    reliable.Backoff{Base: 50 * time.Millisecond, Max: time.Second},
	}
	return cp.Run(ctx, tls)
}

// Attempts returns the total campaign attempts made across all nodes — the
// quantity chaos tests compare across same-seed runs.
func (cp *Campaign) Attempts() int64 { return cp.attempts.Load() }

// Discarded returns how many connections died mid-campaign with staged
// reports that were thrown away — the visible footprint of nodes dying
// before their commit.
func (c *Controller) Discarded() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.discarded
}

// DuplicateCommits returns how many complete campaign replays were
// deduplicated by the first-commit-wins rule — the footprint of Bye acks
// lost on the wire.
func (c *Controller) DuplicateCommits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dupCommits
}
