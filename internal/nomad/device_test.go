package nomad_test

// The device side of the pipeline against this package's server: the event
// engine uploads through a real Client over real HTTP, clean and under
// faults. These are the tests that used to drive a goroutine-per-device
// Agent; that Agent is now the engine's test oracle (engine/agent_test.go)
// and the engine is the one device pipeline.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/faultnet"
	"locind/internal/ingest"
	"locind/internal/mobility"
	"locind/internal/netaddr"
	"locind/internal/nomad"
	"locind/internal/nomad/engine"
	"locind/internal/obs"
	"locind/internal/reliable"
)

func smallTrace(t *testing.T) *mobility.DeviceTrace {
	t.Helper()
	cfg := asgraph.DefaultSynthConfig()
	cfg.Tier2 = 60
	cfg.Stubs = 500
	g, err := asgraph.Synthesize(cfg, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := bgp.NewPrefixTable(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := mobility.DefaultDeviceConfig()
	dcfg.Users = 12
	dcfg.Days = 3
	dt, err := mobility.GenerateDeviceTrace(g, pt, dcfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

// oneUser is the trace of a single device of dt.
func oneUser(dt *mobility.DeviceTrace, i int) *mobility.DeviceTrace {
	return &mobility.DeviceTrace{Days: dt.Days, Users: dt.Users[i : i+1]}
}

// cellular is a one-device trace of n short cellular visits: records that
// never meet an upload opportunity.
func cellular(n int) *mobility.DeviceTrace {
	u := mobility.UserTrace{ID: 7}
	for i := 0; i < n; i++ {
		u.Visits = append(u.Visits, mobility.Visit{
			Start: float64(i),
			Dur:   0.5,
			Loc:   mobility.Location{Addr: netaddr.MakeAddr(10, 0, 0, byte(i+1)), Net: mobility.Cellular},
		})
	}
	return &mobility.DeviceTrace{Days: 1, Users: []mobility.UserTrace{u}}
}

// serve starts h (a *nomad.Server, or a handler mangling the way to one).
func serve(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// recorder sits in front of a server and keeps the entries of every upload
// the server answered 204, in arrival order — the records the tests that
// read uploads back compare against the trace. The server itself keeps
// only aggregates.
type recorder struct {
	next    http.Handler
	mu      sync.Mutex
	entries []nomad.Entry
}

func (r *recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	rec := httptest.NewRecorder()
	r.next.ServeHTTP(rec, req)
	if req.URL.Path == "/upload" && rec.Code == http.StatusNoContent {
		var batch []nomad.Entry
		if err := json.Unmarshal(body, &batch); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		r.mu.Lock()
		r.entries = append(r.entries, batch...)
		r.mu.Unlock()
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes()) //nolint:errcheck // the client sees a short body as its own error
}

// accepted returns a copy of the recorded entries.
func (r *recorder) accepted() []nomad.Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]nomad.Entry(nil), r.entries...)
}

// fleet is an engine with the counters these tests read. Retry pauses take
// no wall-clock time unless cfg says otherwise.
type fleet struct {
	*engine.Engine
	met *engine.Metrics
}

// device0 is the hashed identifier the engine uploads the trace's first
// device under.
func device0() string { return nomad.HashDeviceID("device-0") }

// newFleet builds an engine replaying every device of dt day by day.
func newFleet(t *testing.T, dt *mobility.DeviceTrace, cfg engine.Config) fleet {
	t.Helper()
	cfg.Fleet, cfg.Devices, cfg.Days = dt, len(dt.Users), dt.Days
	cfg.Metrics = engine.NewMetrics(obs.NewRegistry())
	if cfg.Sleep == nil {
		cfg.Sleep = func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
	}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fleet{eng, cfg.Metrics}
}

// stored is what the server's aggregates hold for device0.
func stored(s *nomad.Server) nomad.DeviceAgg {
	d, _ := s.Agg.Device(device0())
	return d
}

func (f fleet) uploaded() int { return int(f.met.EntriesUploaded.Value()) }
func (f fleet) pending() int  { return int(f.met.QueueEntries.Value()) }
func (f fleet) failures() int { return int(f.met.UploadFailures.Value()) }

// TestAgentPipeline runs the full measurement loop for one device and checks
// the records the server accepts match the trace.
func TestAgentPipeline(t *testing.T) {
	s := nomad.NewStreamingServer()
	rec := &recorder{next: s}
	dt := oneUser(smallTrace(t), 0)
	u := &dt.Users[0]
	f := newFleet(t, dt, engine.Config{Uploader: nomad.NewClient(serve(t, rec))})
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	uploaded := f.uploaded()
	if uploaded+f.pending() != len(u.Visits) {
		t.Fatalf("uploaded %d + pending %d != %d visits", uploaded, f.pending(), len(u.Visits))
	}
	if n := stored(s).Records; n != uint64(uploaded) {
		t.Fatalf("store has %d, uploaded %d", n, uploaded)
	}
	// Accepted records must be a prefix of the visit sequence with matching
	// device, addresses and net types.
	accepted := rec.accepted()
	if len(accepted) != uploaded {
		t.Fatalf("server accepted %d records, uploaded %d", len(accepted), uploaded)
	}
	for i, e := range accepted {
		v := u.Visits[i]
		if e.DeviceID != device0() {
			t.Fatalf("record %d from %q, want %q", i, e.DeviceID, device0())
		}
		if e.IPAddr != v.Loc.Addr.String() {
			t.Fatalf("record %d addr %q != visit addr %q", i, e.IPAddr, v.Loc.Addr)
		}
		if e.NetType != v.Loc.Net.String() {
			t.Fatalf("record %d net %q != %q", i, e.NetType, v.Loc.Net)
		}
		if e.Time != v.Start {
			t.Fatalf("record %d time %v != %v", i, e.Time, v.Start)
		}
	}
	// At least one upload must have happened (every user sleeps at home on
	// WiFi for more than MinUploadDwell).
	if uploaded == 0 {
		t.Fatal("no records uploaded despite long home dwells")
	}
}

// TestRunFleet: a whole fleet through one engine lands every device.
func TestRunFleet(t *testing.T) {
	s := nomad.NewStreamingServer()
	dt := smallTrace(t)
	f := newFleet(t, dt, engine.Config{Uploader: nomad.NewClient(serve(t, s))})
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.uploaded() == 0 {
		t.Fatal("fleet uploaded nothing")
	}
	snap := s.Agg.Snapshot()
	if snap.Records != uint64(f.uploaded()) {
		t.Fatalf("store %d != uploaded %d", snap.Records, f.uploaded())
	}
	if snap.Devices != len(dt.Users) {
		t.Fatalf("devices in store = %d, want %d", snap.Devices, len(dt.Users))
	}
	// An empty fleet is a configuration error, not a silent no-op.
	if _, err := engine.New(engine.Config{Fleet: &mobility.DeviceTrace{Days: 1}, Days: 1}); err == nil {
		t.Fatal("a fleet of no devices should be refused")
	}
}

// TestAgentUploadRetryAndStoreAndForward: transient upload failures are
// absorbed by the retries of one opportunity; nothing is lost or doubled.
func TestAgentUploadRetryAndStoreAndForward(t *testing.T) {
	s := nomad.NewStreamingServer()
	failuresLeft := 3
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/upload" && failuresLeft > 0 {
			failuresLeft--
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		s.ServeHTTP(w, r)
	})
	dt := oneUser(smallTrace(t), 0)
	f := newFleet(t, dt, engine.Config{
		Uploader:      nomad.NewClient(serve(t, flaky)),
		UploadRetries: 5, // absorb all three transient failures in one dwell
	})
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.failures() != 0 {
		t.Fatalf("retries should have absorbed transient failures, got %d permanent", f.failures())
	}
	if visits := len(dt.Users[0].Visits); f.uploaded()+f.pending() != visits {
		t.Fatalf("records lost: %d uploaded + %d pending != %d visits", f.uploaded(), f.pending(), visits)
	}
	// Nothing duplicated in the store despite the failures.
	if got := stored(s).Records; got != uint64(f.uploaded()) {
		t.Fatalf("store has %d records for %d uploads", got, f.uploaded())
	}
}

// With retries exhausted at every opportunity, no records are lost — they
// stay buffered (the device was simply never able to phone home).
func TestAgentUploadTotalOutage(t *testing.T) {
	down := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	})
	dt := oneUser(smallTrace(t), 1)
	f := newFleet(t, dt, engine.Config{
		Uploader:      nomad.NewClient(serve(t, down)),
		UploadRetries: -1, // a single attempt per opportunity
	})
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.uploaded() != 0 {
		t.Fatalf("uploads should all fail, got %d", f.uploaded())
	}
	if visits := len(dt.Users[0].Visits); f.pending() != visits {
		t.Fatalf("buffer lost records: %d of %d", f.pending(), visits)
	}
	if f.failures() == 0 {
		t.Fatal("outage must be counted")
	}
}

// chaosBackend starts the NomadLog backend behind a fault-injecting
// listener and returns the server plus its base URL.
func chaosBackend(t *testing.T, env *faultnet.Env, faults faultnet.StreamFaults) (*nomad.Server, string) {
	t.Helper()
	srv := nomad.NewStreamingServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go ingest.Serve(faultnet.WrapListener(ln, env, faults), srv) //nolint:errcheck // Accept's error once ln closes
	return srv, "http://" + ln.Addr().String()
}

// nomadChaosOutcome is what one run observes, for fault-free and same-seed
// comparison.
type nomadChaosOutcome struct {
	stored   nomad.DeviceAgg
	uploaded int
	attempts int64
	failures int
	dups     uint64
}

// runNomadChaos replays one device's trace against a backend with the
// given faults, flushing at the end, and returns the outcome. The device is
// deterministic: a fresh connection per request (so each request maps to
// exactly one fault decision, in order), seeded jitter, no real sleeping.
func runNomadChaos(t *testing.T, dt *mobility.DeviceTrace, faults faultnet.StreamFaults, envSeed, jitterSeed int64) nomadChaosOutcome {
	t.Helper()
	env := faultnet.NewEnv(envSeed)
	env.SetSleep(func(time.Duration) {})
	srv, base := chaosBackend(t, env, faults)
	cli := nomad.NewClient(base)
	cli.HTTP = &http.Client{
		Timeout:   2 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	f := newFleet(t, dt, engine.Config{
		Uploader:      cli,
		UploadRetries: 12,
		Backoff:       reliable.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond, Jitter: 0.5},
		Rand:          rand.New(rand.NewSource(jitterSeed)),
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := f.Run(ctx); err != nil {
		t.Fatalf("chaos replay: %v", err)
	}
	// End of study: the device gets plugged in and drains what's left.
	// Under transient faults this must eventually succeed.
	for f.pending() > 0 {
		if _, err := f.FlushAll(ctx); err != nil {
			t.Fatalf("chaos flush: %v", err)
		}
	}
	return nomadChaosOutcome{
		stored:   stored(srv),
		uploaded: f.uploaded(),
		attempts: f.UploadAttempts(),
		failures: f.failures(),
		dups:     srv.Agg.Snapshot().DupBatches,
	}
}

// TestChaosUploadExactlyOnce is the headline claim for the upload
// pipeline: under connection refusals and mid-stream resets — including
// resets that land after the server committed but before the device saw
// the response — the store ends up with exactly the fault-free record
// sequence: nothing lost, nothing duplicated.
func TestChaosUploadExactlyOnce(t *testing.T) {
	dt := oneUser(smallTrace(t), 0)
	clean := runNomadChaos(t, dt, faultnet.StreamFaults{}, 1, 2)
	// Reset budgets sized to the pipeline's actual request/response sizes,
	// so resets land before, during, and after the server's commit point.
	dirty := runNomadChaos(t, dt, faultnet.StreamFaults{
		Refuse:        0.2,
		Reset:         0.3,
		ResetAfterMin: 1,
		ResetAfterMax: 400,
	}, 5, 4)

	if dirty.attempts <= clean.attempts {
		t.Fatalf("chaos run made %d attempts vs clean %d; faults injected nothing",
			dirty.attempts, clean.attempts)
	}
	if visits := len(dt.Users[0].Visits); clean.stored.Records != uint64(visits) {
		t.Fatalf("fault-free run stored %d of %d visits", clean.stored.Records, visits)
	}
	if dirty.stored.Records != clean.stored.Records {
		t.Fatalf("chaos stored %d records, fault-free %d (lost or duplicated entries)",
			dirty.stored.Records, clean.stored.Records)
	}
	// The digest folds every stored record in order: equal digests are the
	// same record sequence.
	if dirty.stored.Digest != clean.stored.Digest {
		t.Fatalf("chaos stored a different record sequence: %+v vs %+v", dirty.stored, clean.stored)
	}
	if dirty.uploaded != int(dirty.stored.Records) {
		t.Fatalf("device counted %d uploads, store holds %d", dirty.uploaded, dirty.stored.Records)
	}
}

// TestChaosUploadDeterministicReplay: same seeds, same outcome — retry
// counts, failure counts, dedup hits, and stored bytes all replay.
func TestChaosUploadDeterministicReplay(t *testing.T) {
	dt := oneUser(smallTrace(t), 2)
	faults := faultnet.StreamFaults{Refuse: 0.2, Reset: 0.3, ResetAfterMin: 1, ResetAfterMax: 400}
	a := runNomadChaos(t, dt, faults, 7, 8)
	b := runNomadChaos(t, dt, faults, 7, 8)
	if a.attempts != b.attempts || a.failures != b.failures || a.dups != b.dups {
		t.Fatalf("same-seed runs diverged: attempts %d/%d failures %d/%d dups %d/%d",
			a.attempts, b.attempts, a.failures, b.failures, a.dups, b.dups)
	}
	if a.stored != b.stored {
		t.Fatalf("same-seed runs stored different streams:\n%+v\n%+v", a.stored, b.stored)
	}
}

// TestUploadCommittedButResponseLost pins the nastiest failure mode
// deterministically: the server commits the batch, then the response dies
// on the wire. The device must retry (it cannot know the batch landed) and
// the store must recognise the replay — one copy, exactly once.
func TestUploadCommittedButResponseLost(t *testing.T) {
	srv := nomad.NewStreamingServer()
	lostResponses := 2
	mangler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/upload" && lostResponses > 0 {
			lostResponses--
			// Let the real handler commit, then kill the connection
			// instead of answering — a response lost in transit.
			srv.ServeHTTP(httptest.NewRecorder(), r)
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("test server must support hijacking")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
			return
		}
		srv.ServeHTTP(w, r)
	})
	f := newFleet(t, cellular(2), engine.Config{
		Uploader:      nomad.NewClient(serve(t, mangler)),
		UploadRetries: 5,
		FlushAtEnd:    true,
	})
	if err := f.Run(context.Background()); err != nil || f.uploaded() != 2 {
		t.Fatalf("Run = %v with %d records uploaded", err, f.uploaded())
	}
	if got := stored(srv).Records; got != 2 {
		t.Fatalf("store has %d records, want exactly 2 (no duplicates from replays)", got)
	}
	if dups := srv.Agg.Snapshot().DupBatches; dups != 2 {
		t.Fatalf("dedup hits = %d, want 2 (one per lost response)", dups)
	}
	if f.UploadAttempts() != 3 {
		t.Fatalf("attempts = %d, want 3 (two lost responses + success)", f.UploadAttempts())
	}
}

// TestFlushDrainsBacklog: a device that never saw a long dwell still
// delivers everything on the end-of-study flush, split across the sealed
// batches its full buffer left behind.
func TestFlushDrainsBacklog(t *testing.T) {
	srv := nomad.NewStreamingServer()
	rec := &recorder{next: srv}
	f := newFleet(t, cellular(5), engine.Config{
		Uploader:   nomad.NewClient(serve(t, rec)),
		MaxPending: 2, // seals {0,1} and {2,3}; the flush seals {4}
		FlushAtEnd: true,
	})
	if err := f.Run(context.Background()); err != nil || f.uploaded() != 5 {
		t.Fatalf("Run = %v with %d records uploaded", err, f.uploaded())
	}
	if f.pending() != 0 || f.QueuedBatches() != 0 {
		t.Fatalf("after flush: %d records pending in %d batches", f.pending(), f.QueuedBatches())
	}
	if got := stored(srv).Records; got != 5 {
		t.Fatalf("store holds %d records", got)
	}
	if got := f.met.BatchesUploaded.Value(); got != 3 {
		t.Fatalf("backlog drained in %d batches, want 3", got)
	}
	accepted := rec.accepted()
	if len(accepted) != 5 {
		t.Fatalf("server accepted %d records, want 5", len(accepted))
	}
	for i, e := range accepted {
		if want := fmt.Sprintf("10.0.0.%d", i+1); e.IPAddr != want || e.Time != float64(i) {
			t.Fatalf("record %d = %+v, want %s at t=%d", i, e, want, i)
		}
	}
}
