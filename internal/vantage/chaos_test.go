package vantage

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
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

// chaosController serves a controller behind a fault-injecting listener,
// the same wrapper nomad's chaos tests and soak use. It returns the
// controller, its host:port and a shutdown that returns once every handler
// has finished. It runs its own http.Server rather than ingest.Serve, which
// has no shutdown: runVantageChaos snapshots the controller only after
// Shutdown has waited out the last handler.
func chaosController(t *testing.T, env *faultnet.Env, faults faultnet.StreamFaults) (*Controller, string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController()
	hs := &http.Server{Handler: ctrl}
	go hs.Serve(faultnet.WrapListener(ln, env, faults)) //nolint:errcheck // ErrServerClosed once shut down
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := hs.Shutdown(ctx); err != nil {
				t.Errorf("controller shutdown: %v", err)
			}
		})
	}
	t.Cleanup(shutdown)
	return ctrl, ln.Addr().String(), shutdown
}

// vantageChaosOutcome is what one campaign observes, for fault-free and
// same-seed comparison.
type vantageChaosOutcome struct {
	reports    int
	attempts   int64
	refused    int
	dupCommits int
	stats      faultnet.Stats
	merged     map[string][]netaddr.Addr // "name@hour" -> union
}

// runVantageChaos runs one full campaign against a faulty controller and,
// once the server has shut down, snapshots everything a determinism check
// needs.
func runVantageChaos(t *testing.T, tls []cdn.Timeline, nodes, retries int, faults faultnet.StreamFaults, envSeed, jitterSeed int64) vantageChaosOutcome {
	t.Helper()
	env := faultnet.NewEnv(envSeed)
	env.SetSleep(func(time.Duration) {})
	ctrl, addr, shutdown := chaosController(t, env, faults)
	cp := &Campaign{
		Controller: addr,
		Nodes:      nodes,
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
	shutdown()

	merged := map[string][]netaddr.Addr{}
	for i := range tls {
		tl := &tls[i]
		for h := 0; h < tl.Hours; h++ {
			merged[fmt.Sprintf("%s@%d", tl.Site.Name, h)] = ctrl.MergedSet(tl.Site.Name, h)
		}
	}
	refused, _ := ctrl.Refused()
	return vantageChaosOutcome{
		reports:    ctrl.ReportCount(),
		attempts:   cp.Attempts(),
		refused:    refused,
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
	tls := chaosTimelines(t, 72, 8)
	clean := runVantageChaos(t, tls, 8, 0, faultnet.StreamFaults{}, 1, 2)
	dirty := runVantageChaos(t, tls, 8, 25, faultnet.StreamFaults{
		Refuse:        0.2,
		Reset:         0.3,
		ResetAfterMin: 1,
		ResetAfterMax: 16000,
	}, 5, 4)

	t.Logf("fault-free: %d attempts; chaos: %d attempts, %d refused, %d duplicates, faults %+v",
		clean.attempts, dirty.attempts, dirty.refused, dirty.dupCommits, dirty.stats)
	if dirty.stats.Refused+dirty.stats.Reset == 0 {
		t.Fatal("faults injected nothing")
	}
	if dirty.attempts <= clean.attempts {
		t.Fatalf("chaos campaign made %d attempts vs clean %d", dirty.attempts, clean.attempts)
	}
	if dirty.refused == 0 {
		t.Fatal("no body cut off mid-stream was ever refused")
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
	tls := chaosTimelines(t, 72, 4)
	faults := faultnet.StreamFaults{Refuse: 0.2, Reset: 0.3, ResetAfterMin: 1, ResetAfterMax: 8000}
	a := runVantageChaos(t, tls, 1, 40, faults, 7, 8)
	b := runVantageChaos(t, tls, 1, 40, faults, 7, 8)
	if a.attempts != b.attempts || a.refused != b.refused || a.dupCommits != b.dupCommits {
		t.Fatalf("same-seed runs diverged: attempts %d/%d refused %d/%d dups %d/%d",
			a.attempts, b.attempts, a.refused, b.refused, a.dupCommits, b.dupCommits)
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
	t.Logf("%d attempts, %d refused, %d duplicates, faults %+v", a.attempts, a.refused, a.dupCommits, a.stats)
	if a.attempts <= 1 {
		t.Fatalf("attempts = %d; faults never forced a replay", a.attempts)
	}
}

// TestNodeDiesMidCampaignExcluded pins the transactional contract directly:
// a body cut off mid-stream commits nothing. A node that sends half a day's
// body and drops dead contributes nothing — the union holds exactly the
// surviving node's observations.
func TestNodeDiesMidCampaignExcluded(t *testing.T) {
	ctrl := NewController()
	ts := httptest.NewServer(ctrl)
	defer ts.Close()
	addr := ts.Listener.Addr().String()

	poison := make([]Report, 6)
	for h := range poison {
		poison[h] = Report{Hour: h, Name: "x.example.com", Addrs: []string{"192.0.2.66"}}
	}
	body, err := json.Marshal(Upload{Node: "pl000", Reports: poison})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /report HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n%s", addr, len(body), body[:len(body)/2])
	conn.Close() // died mid-body: no commit

	// A partial view of a one-address set is that address.
	good := netaddr.MustParseAddr("10.0.0.1")
	survivor := &Campaign{Controller: addr, Nodes: 1}
	tls := []cdn.Timeline{{Site: cdn.Site{Name: "x.example.com"}, Hours: 1, Initial: []netaddr.Addr{good}}}
	if err := survivor.Run(context.Background(), tls); err != nil {
		t.Fatal(err)
	}
	// The cut-off body's handler runs on its own connection; closing the
	// server before it has read the headers would drop it unhandled.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if n, _ := ctrl.Refused(); n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the cut-off body was never refused")
		}
	}
	ts.Close()

	set := ctrl.MergedSet("x.example.com", 0)
	if len(set) != 1 || set[0] != good {
		t.Fatalf("dead node corrupted the union: %v", set)
	}
	if n, _ := ctrl.Refused(); n != 1 {
		t.Fatalf("Refused = %d, want 1", n)
	}
	if ctrl.ReportCount() != 1 || ctrl.NodeCount() != 1 {
		t.Fatalf("%d reports from %d nodes, want 1 from 1 (a cut-off body must not count)", ctrl.ReportCount(), ctrl.NodeCount())
	}
}

// TestDuplicateCampaignCommitDeduplicated pins first-commit-wins: a node
// re-posting a day because the 204 was lost is recognised and skipped,
// never double-counted.
func TestDuplicateCampaignCommitDeduplicated(t *testing.T) {
	ctrl := NewController()
	body := mustJSON(t, Upload{Node: "pl000", Reports: []Report{{Hour: 0, Name: "x.example.com", Addrs: []string{"10.0.0.1"}}}})
	for replay := 0; replay < 2; replay++ {
		if code := post(ctrl, http.MethodPost, "/report", body); code != http.StatusNoContent {
			t.Fatalf("post %d answered %d, want 204", replay, code)
		}
	}
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
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tls := chaosTimelines(t, 4, 2)
	if err := Sweep(ctx, serve(t, NewController()), 2, tls); err == nil {
		t.Fatal("cancelled campaign must error")
	}
}

// Sweep and the two counters below are how these tests start a campaign
// and read its footprint; vantaged builds its own Campaign and reads none.

// Sweep runs a full measurement campaign with default reliability settings:
// numNodes vantage points, two retries per day's upload, modest backoff. Use a Campaign directly to tune the policy.
func Sweep(ctx context.Context, controllerAddr string, numNodes int, tls []cdn.Timeline) error {
	cp := &Campaign{
		Controller: controllerAddr,
		Nodes:      numNodes,
		Retries:    2,
		Backoff:    reliable.Backoff{Base: 50 * time.Millisecond, Max: time.Second},
	}
	return cp.Run(ctx, tls)
}

// Attempts returns the total campaign attempts made across all nodes — the
// quantity chaos tests compare across same-seed runs.
func (cp *Campaign) Attempts() int64 { return cp.attempts.Load() }

// DuplicateCommits returns how many accepted uploads repeated a committed
// (node, day) and were skipped by the first-commit-wins rule — the
// footprint of 204s lost on the wire.
func (c *Controller) DuplicateCommits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dupCommits
}
