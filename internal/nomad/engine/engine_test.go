package engine

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/mobility"
	"locind/internal/netaddr"
	"locind/internal/nomad"
	"locind/internal/obs"
)

// engineFixture builds the small internetwork the engine tests share.
func engineFixture(t *testing.T, days int) (*asgraph.Graph, *bgp.PrefixTable, mobility.DeviceConfig) {
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
	dcfg.Days = days
	return g, pt, dcfg
}

func testFleet(t *testing.T, days int, seed int64) *mobility.FleetGen {
	t.Helper()
	g, pt, dcfg := engineFixture(t, days)
	f, err := mobility.NewFleetGen(g, pt, dcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// memUploader feeds batches straight into Aggregates, optionally failing
// chosen uploads. Safe for concurrent use (sharded engines share one).
type memUploader struct {
	agg  *nomad.Aggregates
	mu   sync.Mutex
	fail func(batchID string) bool
	ups  int
}

func (m *memUploader) Upload(_ context.Context, batchID string, batch []nomad.Entry) error {
	m.mu.Lock()
	fail := m.fail != nil && m.fail(batchID)
	m.ups++
	m.mu.Unlock()
	if fail {
		return errors.New("memUploader: injected failure")
	}
	m.agg.IngestBatch(batchID, batch)
	return nil
}

// instantSleep keeps retry backoff out of test wall-clock time.
func instantSleep(context.Context, time.Duration) error { return nil }

// TestHeapOrdering: events pop in (at, dev, kind) order regardless of push
// order.
func TestHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h evHeap
	var want []event
	for i := 0; i < 2000; i++ {
		ev := event{
			at:   float64(rng.Intn(200)),
			dev:  int32(rng.Intn(50)),
			kind: uint8(rng.Intn(2)),
		}
		want = append(want, ev)
		h.push(ev)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].less(want[j]) })
	for i, w := range want {
		got := h.pop()
		if got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap not empty after draining: %d left", h.len())
	}
}

// runStreaming drives one freshly built engine (or shard set) over the
// first three days of fleet into a fresh Aggregates and returns its
// snapshot.
func runStreaming(t *testing.T, fleet *mobility.FleetGen, devices, shards int) (*nomad.Aggregates, int64) {
	t.Helper()
	up := &memUploader{agg: nomad.NewAggregates()}
	var steps int64
	per := devices / shards
	for s := 0; s < shards; s++ {
		lo := s * per
		hi := lo + per
		if s == shards-1 {
			hi = devices
		}
		eng, err := New(Config{
			Fleet:      fleet,
			UserBase:   lo,
			Devices:    hi - lo,
			Days:       3,
			Uploader:   up,
			Sleep:      instantSleep,
			FlushAtEnd: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if n := eng.QueuedBatches(); n != 0 {
			t.Fatalf("shard %d left %d batches queued on a clean uploader", s, n)
		}
		steps += eng.Steps()
	}
	return up.agg, steps
}

// TestEngineStreamingDeterministic: same-seed fleet runs produce identical
// server-side digests; a different seed does not.
func TestEngineStreamingDeterministic(t *testing.T) {
	fleet := testFleet(t, 3, 11)
	a, stepsA := runStreaming(t, fleet, 30, 1)
	b, stepsB := runStreaming(t, fleet, 30, 1)
	if stepsA != stepsB {
		t.Fatalf("event counts diverged across same-seed runs: %d vs %d", stepsA, stepsB)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa != sb {
		t.Fatalf("same-seed snapshots diverged:\n%+v\n%+v", sa, sb)
	}
	if sa.Records == 0 || sa.Devices != 30 {
		t.Fatalf("implausible snapshot %+v", sa)
	}
	other, _ := runStreaming(t, testFleet(t, 3, 12), 30, 1)
	if other.Snapshot().Digest == sa.Digest {
		t.Fatal("different fleet seeds produced identical digests")
	}
}

// TestEngineShardInvariance: the records each device uploads are identical
// whether the fleet runs as one shard or four.
func TestEngineShardInvariance(t *testing.T) {
	fleet := testFleet(t, 3, 7)
	one, _ := runStreaming(t, fleet, 30, 1)
	four, _ := runStreaming(t, fleet, 30, 4)
	so, sf := one.Snapshot(), four.Snapshot()
	if so.Digest != sf.Digest || so.Records != sf.Records || so.Devices != sf.Devices {
		t.Fatalf("sharding changed the ingested stream:\n1 shard: %+v\n4 shards: %+v", so, sf)
	}
}

// TestEngineResetReplay: Reset rewinds to the identical schedule — a warm
// replay uploads the identical stream and processes the identical events.
func TestEngineResetReplay(t *testing.T) {
	fleet := testFleet(t, 3, 9)
	up := &memUploader{agg: nomad.NewAggregates()}
	eng, err := New(Config{
		Fleet:      fleet,
		Devices:    20,
		Days:       3,
		Uploader:   up,
		Sleep:      instantSleep,
		FlushAtEnd: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := up.agg.Snapshot()
	steps := eng.Steps()

	up.agg = nomad.NewAggregates()
	eng.Reset()
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if eng.Steps() != steps {
		t.Fatalf("replay processed %d events, first run %d", eng.Steps(), steps)
	}
	if second := up.agg.Snapshot(); second != first {
		t.Fatalf("replay diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestEngineBackpressure: with a dead uploader, MaxPending forces seals,
// MaxQueuedBatches bounds every device's queue, and evictions are counted
// — memory stays bounded no matter how long uploads stay down.
func TestEngineBackpressure(t *testing.T) {
	fleet := testFleet(t, 3, 13)
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	up := &memUploader{
		agg:  nomad.NewAggregates(),
		fail: func(string) bool { return true },
	}
	const maxQ = 3
	eng, err := New(Config{
		Fleet:            fleet,
		Devices:          15,
		Days:             3,
		Uploader:         up,
		UploadRetries:    -1, // single attempt; retrying a dead uploader only slows the test
		Sleep:            instantSleep,
		MaxPending:       4,
		MaxQueuedBatches: maxQ,
		FlushAtEnd:       true,
		Metrics:          met,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := range eng.devs {
		d := &eng.devs[i]
		if len(d.batches) > maxQ {
			t.Fatalf("device %d holds %d sealed batches, bound is %d", i, len(d.batches), maxQ)
		}
		if loose := eng.loose(d); loose >= 4+1 {
			t.Fatalf("device %d holds %d loose records past MaxPending", i, loose)
		}
	}
	if met.DroppedBatches.Value() == 0 {
		t.Fatal("a dead uploader over 3 days evicted nothing; backpressure never engaged")
	}
	if met.UploadFailures.Value() == 0 {
		t.Fatal("upload failures not counted")
	}
	if got := met.QueueBatches.Value(); got != int64(eng.QueuedBatches()) {
		t.Fatalf("QueueBatches gauge %d disagrees with engine state %d", got, eng.QueuedBatches())
	}
	if up.agg.Snapshot().Records != 0 {
		t.Fatal("dead uploader stored records")
	}
}

// TestEngineFlushAllRecovers: batches stranded by a down uploader drain to
// zero once it comes back, with nothing lost or duplicated.
func TestEngineFlushAllRecovers(t *testing.T) {
	fleet := testFleet(t, 2, 17)
	down := true
	up := &memUploader{
		agg:  nomad.NewAggregates(),
		fail: func(string) bool { return down },
	}
	met := NewMetrics(obs.NewRegistry())
	eng, err := New(Config{
		Fleet:         fleet,
		Devices:       10,
		Days:          2,
		Uploader:      up,
		UploadRetries: -1,
		Sleep:         instantSleep,
		FlushAtEnd:    true,
		Metrics:       met,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	stranded := eng.QueuedBatches()
	if stranded == 0 {
		t.Fatal("nothing stranded with the uploader down")
	}
	down = false
	remaining, err := eng.FlushAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if remaining != 0 || eng.QueuedBatches() != 0 {
		t.Fatalf("flush left %d batches queued", eng.QueuedBatches())
	}
	if met.QueueEntries.Value() != 0 || met.QueueBatches.Value() != 0 {
		t.Fatalf("queue gauges not drained: entries=%d batches=%d",
			met.QueueEntries.Value(), met.QueueBatches.Value())
	}
	snap := up.agg.Snapshot()
	if snap.Records == 0 || snap.DupBatches != 0 {
		t.Fatalf("recovery snapshot %+v: want records > 0 and no duplicates", snap)
	}
	// Sequence numbers per device must still be the contiguous sealed
	// order: every device's aggregate saw every batch it sealed.
	for i := 0; i < eng.Devices(); i++ {
		d, ok := up.agg.Device(eng.DeviceID(i))
		if !ok {
			continue
		}
		if uint64(d.LastSeq) != d.Batches {
			t.Fatalf("device %d: lastSeq %d != %d batches applied (gap or reorder)",
				i, d.LastSeq, d.Batches)
		}
	}
}

// byDevice keeps a copy of every uploaded entry, per device, in upload
// order.
type byDevice map[string][]nomad.Entry

func (b byDevice) Upload(_ context.Context, _ string, batch []nomad.Entry) error {
	for _, e := range batch {
		b[e.DeviceID] = append(b[e.DeviceID], e)
	}
	return nil
}

// TestEngineSkipsEmptyDays: a replayed trace may leave days empty. Device 0
// skips day 1 and claims day 2 while device 1 still has day-0 visits to
// play, so the day-2 claim must not recycle the arena under device 1's
// window; device 2 has no visits at all and schedules nothing. Every
// device with visits still uploads exactly its visits, in order.
func TestEngineSkipsEmptyDays(t *testing.T) {
	visit := func(start float64, host byte, net mobility.NetType) mobility.Visit {
		return mobility.Visit{Start: start, Dur: 0.5, Loc: mobility.Location{Addr: netaddr.MakeAddr(10, 0, 0, host), Net: net}}
	}
	dt := &mobility.DeviceTrace{Days: 3, Users: []mobility.UserTrace{
		{Visits: []mobility.Visit{visit(1, 1, mobility.Cellular), visit(50, 2, mobility.WiFi), visit(60, 3, mobility.Cellular)}},
		{Visits: []mobility.Visit{visit(2, 4, mobility.Cellular), visit(20, 5, mobility.WiFi), visit(23, 6, mobility.Cellular), visit(30, 7, mobility.Cellular)}},
		{},
	}}
	up := byDevice{}
	eng, err := New(Config{Fleet: dt, Devices: 3, Days: dt.Days, Uploader: up, FlushAtEnd: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, u := range dt.Users {
		got := up[eng.DeviceID(i)]
		if len(got) != len(u.Visits) {
			t.Fatalf("device %d uploaded %d records for %d visits", i, len(got), len(u.Visits))
		}
		for j, v := range u.Visits {
			if e := got[j]; e.Time != v.Start || e.IPAddr != v.Loc.Addr.String() || e.NetType != v.Loc.Net.String() {
				t.Fatalf("device %d record %d = %+v, visit %+v", i, j, e, v)
			}
		}
	}
	// Seven visits and one end-of-trace flush for each device with visits.
	if eng.Steps() != 7+2 {
		t.Fatalf("%d events processed, want 9", eng.Steps())
	}
}

// TestEngineConfigValidation: a fleet, devices and days are all required.
func TestEngineConfigValidation(t *testing.T) {
	fleet := testFleet(t, 2, 1)
	if _, err := New(Config{}); err == nil {
		t.Fatal("an empty config accepted")
	}
	if _, err := New(Config{Devices: 1, Days: 2}); err == nil {
		t.Fatal("a nil Fleet accepted")
	}
	if _, err := New(Config{Fleet: fleet, Devices: 0, Days: 2}); err == nil {
		t.Fatal("zero devices accepted")
	}
	if _, err := New(Config{Fleet: fleet, Devices: 1}); err == nil {
		t.Fatal("Days == 0 accepted")
	}
	if _, err := New(Config{Fleet: fleet, Devices: 1, Days: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineBatchIDForm: uploaded batch IDs carry the Agent's exact form.
func TestEngineBatchIDForm(t *testing.T) {
	fleet := testFleet(t, 2, 3)
	var ids []string
	up := &memUploader{agg: nomad.NewAggregates()}
	up.fail = func(id string) bool { ids = append(ids, id); return false }
	eng, err := New(Config{Fleet: fleet, Devices: 5, Days: 2, Uploader: up, Sleep: instantSleep, FlushAtEnd: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("no uploads happened")
	}
	for _, id := range ids {
		if !strings.HasPrefix(id, "dev-") || !strings.Contains(id, "-b") || len(id) != len("dev-0123456789abcdef-b000001") {
			t.Fatalf("batch ID %q is not Agent-form", id)
		}
	}
}

// The accessors and the rewind below are the tests' and the allocguard
// harness's handles on an Engine; no binary calls them.

// Devices returns the shard's device count.
func (e *Engine) Devices() int { return len(e.devs) }

// DeviceID returns the hashed identifier of engine-local device i.
func (e *Engine) DeviceID(i int) string { return e.ids[i] }

// Reset rewinds the engine to its initial schedule, retaining every
// buffer's capacity — a warm Reset+Run replays the identical workload with
// zero steady-state allocations, which is both the replay API and what the
// allocguard harness measures.
func (e *Engine) Reset() {
	e.met.HeapEvents.Add(-int64(e.heap.len()))
	e.heap.ev = e.heap.ev[:0]
	e.arenaLive = [2]int32{} // no live window: the first claims recycle both arenas
	for i := range e.devs {
		d := &e.devs[i]
		e.met.QueueEntries.Add(-int64(len(d.recs) - int(d.head)))
		e.met.QueueBatches.Add(-int64(len(d.batches)))
		*d = deviceState{recs: d.recs[:0], batches: d.batches[:0]}
	}
	e.steps, e.attempts = 0, 0
	e.start()
}
