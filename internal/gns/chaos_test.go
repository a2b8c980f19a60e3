package gns

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"locind/internal/faultnet"
	"locind/internal/obs"
	"locind/internal/reliable"
)

// chaosResult captures everything a chaos run observes, for comparison
// against the fault-free reference and against a same-seed replay.
type chaosResult struct {
	finalAddrs map[string][]string
	lastUpdate map[string]uint64 // version returned by the name's last update
	finalVer   map[string]uint64 // version seen by the final lookup
	attempts   int64
	trace      []string

	injected faultnet.Stats // the Env's own fault counters
	observed faultnet.Stats // the same counts as scraped from obs handles
	srv      *ServerMetrics
	cli      *reliable.Metrics
}

// observedStats reads the obs counters back into a Stats so chaos tests can
// assert injected == observed field-for-field.
func observedStats(m *faultnet.Metrics) faultnet.Stats {
	return faultnet.Stats{
		Dropped:    int(m.Dropped.Value()),
		Duplicated: int(m.Duplicated.Value()),
		Delayed:    int(m.Delayed.Value()),
		Refused:    int(m.Refused.Value()),
		Reset:      int(m.Reset.Value()),
		Stalled:    int(m.Stalled.Value()),
	}
}

// runChaosScenario replays a fixed update/lookup workload against a GNS
// server whose transport injects faults, returning the observed outcome.
func runChaosScenario(t *testing.T, faults faultnet.PacketFaults, envSeed, jitterSeed int64) chaosResult {
	t.Helper()
	svc := newMapBackend()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	env := faultnet.NewEnv(envSeed)
	env.SetSleep(func(time.Duration) {})
	// Every chaos run carries live obs instrumentation: besides feeding the
	// injected-equals-observed assertion, this proves metrics recording
	// never perturbs the deterministic replay.
	reg := obs.NewRegistry()
	fm := faultnet.NewMetrics(reg)
	env.SetMetrics(fm)
	sm := NewServerMetrics(reg)
	srv := ServePacketConnObserved(context.Background(), svc, faultnet.WrapPacketConn(pc, env, faults, faults, nil), sm)
	defer srv.Close()

	c := newWireClient(srv.Addr())
	c.policy = reliable.Policy{
		MaxAttempts: 16,
		PerAttempt:  15 * time.Millisecond, // localhost RTT is microseconds; this only caps the wait on drops
		Backoff:     reliable.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond, Jitter: 0.5},
		Rand:        rand.New(rand.NewSource(jitterSeed)),
		Sleep:       func(ctx context.Context, d time.Duration) error { return ctx.Err() },
		Metrics:     reliable.NewMetrics(reg, "gns"),
	}

	ctx := context.Background()
	res := chaosResult{
		finalAddrs: map[string][]string{},
		lastUpdate: map[string]uint64{},
		finalVer:   map[string]uint64{},
	}
	// The workload: every device updates twice (a mobility event), then is
	// looked up — sequential, so the fault sequence is reproducible.
	names := []string{"alice.phone", "bob.laptop", "carol.tablet", "dave.watch",
		"erin.phone", "frank.car", "grace.drone", "heidi.sensor"}
	for round := 0; round < 2; round++ {
		for i, name := range names {
			ver, err := c.put(ctx, name, addrs(fmt.Sprintf("10.%d.%d.1", round, i)))
			if err != nil {
				t.Fatalf("chaos update %q round %d: %v", name, round, err)
			}
			res.lastUpdate[name] = ver
		}
	}
	for _, name := range names {
		rec, err := c.get(ctx, name)
		if err != nil {
			t.Fatalf("chaos lookup %q: %v", name, err)
		}
		for _, a := range rec.Addrs {
			res.finalAddrs[name] = append(res.finalAddrs[name], a.String())
		}
		res.finalVer[name] = rec.Version
	}
	res.attempts = c.attempts
	res.trace = env.Trace()
	res.injected = env.Stats()
	res.observed = observedStats(fm)
	res.srv = sm
	res.cli = c.policy.Metrics
	return res
}

// TestChaosConvergesUnder30PercentLoss is the headline robustness claim:
// with 30% datagram loss in each direction, the lookup/update pipeline
// converges to exactly the fault-free result — same final bindings, and
// every final lookup observes the version committed by that name's last
// update.
func TestChaosConvergesUnder30PercentLoss(t *testing.T) {
	clean := runChaosScenario(t, faultnet.PacketFaults{}, 1, 2)
	lossy := runChaosScenario(t, faultnet.PacketFaults{Drop: 0.3}, 3, 4)

	if len(lossy.trace) == 0 {
		t.Fatal("no faults fired; the chaos run exercised nothing")
	}
	if lossy.attempts <= clean.attempts {
		t.Fatalf("lossy run made %d attempts vs clean %d; loss injected nothing",
			lossy.attempts, clean.attempts)
	}
	for name, want := range clean.finalAddrs {
		got := lossy.finalAddrs[name]
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%q: final addrs %v != fault-free %v", name, got, want)
		}
	}
	// Retried updates may burn extra versions, but the final lookup must
	// observe exactly the last committed update — no stale reads, no
	// lost writes.
	for name, lastVer := range lossy.lastUpdate {
		if lossy.finalVer[name] != lastVer {
			t.Fatalf("%q: final lookup saw v%d, last update committed v%d",
				name, lossy.finalVer[name], lastVer)
		}
	}
}

// TestChaosDeterministicReplay: the same seeds replay byte-for-byte — same
// fault trace, same retry counts, same final state.
func TestChaosDeterministicReplay(t *testing.T) {
	faults := faultnet.PacketFaults{Drop: 0.3, Dup: 0.1}
	a := runChaosScenario(t, faults, 7, 8)
	b := runChaosScenario(t, faults, 7, 8)
	if a.attempts != b.attempts {
		t.Fatalf("retry counts diverged: %d vs %d", a.attempts, b.attempts)
	}
	if len(a.trace) != len(b.trace) {
		t.Fatalf("fault traces diverged in length: %d vs %d", len(a.trace), len(b.trace))
	}
	for i := range a.trace {
		if a.trace[i] != b.trace[i] {
			t.Fatalf("fault trace diverged at %d: %q vs %q", i, a.trace[i], b.trace[i])
		}
	}
	for name := range a.finalVer {
		if a.finalVer[name] != b.finalVer[name] {
			t.Fatalf("%q: final versions diverged: %d vs %d",
				name, a.finalVer[name], b.finalVer[name])
		}
	}
}

// TestChaosInjectedEqualsObserved is the observability ground-truth check:
// every fault the Env injects must surface, one for one, in the obs
// counters — the live /metrics view of a chaos run agrees exactly with the
// simulator's internal ledger.
func TestChaosInjectedEqualsObserved(t *testing.T) {
	// All three packet faults faultnet injects are retry-transparent: a
	// dropped, duplicated or delayed datagram costs the client a retry or a
	// discarded stale reply, never an authoritative error.
	faults := faultnet.PacketFaults{Drop: 0.2, Dup: 0.1, Delay: 0.1, DelayMax: time.Millisecond}
	res := runChaosScenario(t, faults, 11, 12)
	if res.injected == (faultnet.Stats{}) {
		t.Fatal("no faults injected; the assertion would be vacuous")
	}
	if res.observed != res.injected {
		t.Fatalf("obs counters diverged from injected faults:\nobserved %+v\ninjected %+v",
			res.observed, res.injected)
	}
	// The serve loop's own ledger must line up with the workload: every
	// datagram that survived the fault layer was counted, dispatched, and
	// matched by the client's attempt counter.
	if got := res.srv.Lookups.Value() + res.srv.Updates.Value(); got != res.srv.Requests.Value() {
		t.Fatalf("dispatched %d of %d requests", got, res.srv.Requests.Value())
	}
	if res.srv.Inflight.Value() != 0 {
		t.Fatalf("inflight gauge left at %d", res.srv.Inflight.Value())
	}
	if res.cli.Attempts.Value() != res.attempts {
		t.Fatalf("reliable metrics counted %d attempts, client counted %d",
			res.cli.Attempts.Value(), res.attempts)
	}
	if res.cli.Retries.Value() == 0 {
		t.Fatal("a lossy run must have retried at least once")
	}
}

// TestClientContextCancellationMidRetry is the regression test that the
// retry loop honours ctx: cancelling during the inter-attempt pause aborts
// promptly instead of draining the remaining retries.
func TestClientContextCancellationMidRetry(t *testing.T) {
	c := newWireClient("127.0.0.1:1") // nothing listens here
	c.policy.PerAttempt = 20 * time.Millisecond
	c.policy.MaxAttempts = 101
	c.policy.Backoff = reliable.Backoff{Base: time.Hour} // would take forever if ignored
	ctx, cancel := context.WithCancel(context.Background())
	c.policy.Sleep = func(ctx context.Context, d time.Duration) error {
		cancel() // cancellation lands exactly mid-retry
		return ctx.Err()
	}
	start := time.Now()
	_, err := c.get(ctx, "x")
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	if c.attempts > 2 {
		t.Fatalf("cancellation ignored: %d attempts", c.attempts)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not abort promptly")
	}
}

// TestServerRejectsOversizedDatagram: a datagram beyond the protocol bound
// gets a structured error response, not a mangled parse or silence.
func TestServerOversizedDatagram(t *testing.T) {
	srv := serveLoopback(t, newMapBackend())
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	big := make([]byte, maxDatagram+512)
	for i := range big {
		big[i] = 'a'
	}
	if _, err := conn.Write(big); err != nil {
		t.Skipf("kernel refused oversized datagram before the server saw it: %v", err)
	}
	buf := make([]byte, maxDatagram)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no structured response to oversized datagram: %v", err)
	}
	if !strings.Contains(string(buf[:n]), "exceeds") {
		t.Fatalf("response = %s", buf[:n])
	}
}

// TestServerRecoverGuard: a panic while handling one request is converted
// into a structured error response; the serve loop survives.
func TestServerRecoverGuard(t *testing.T) {
	// A nil service makes any dispatch panic — the guard must catch it.
	s := &Server{svc: nil}
	resp := s.handle(appendRequest(nil, &Request{Op: "vget", Name: "x"}))
	if resp.OK || resp.Code != CodeInternal {
		t.Fatalf("panic not converted to structured error: %+v", resp)
	}

	// End to end: the same poisoned request must not kill a live loop.
	srv := serveLoopback(t, newMapBackend())
	ctx := context.Background()
	c := newWireClient(srv.Addr())
	if _, err := c.put(ctx, "x.phone", addrs("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.get(ctx, "x.phone"); err != nil {
		t.Fatalf("server loop should still serve: %v", err)
	}
}
