package engine

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/faultnet"
	"locind/internal/ingest"
	"locind/internal/mobility"
	"locind/internal/nomad"
	"locind/internal/obs"
	"locind/internal/par"
	"locind/internal/reliable"
)

// SoakConfig configures RunSoak: the full engine→upload→ingest pipeline —
// sharded event engines uploading over real TCP through a faultnet-chaos
// listener into a streaming (constant-memory) nomad server — while a
// sampler watches heap and queue gauges for drift.
type SoakConfig struct {
	// Devices and Days size the fleet; Seed fixes the workload, the chaos
	// schedule, and retry jitter, so same-seed soaks replay the identical
	// ingested stream (the digest line is byte-comparable across runs).
	Devices int
	Days    int
	Seed    int64
	// Shards is the engine count (0 = one per core, capped at Devices).
	Shards int
	// Sampler, when non-nil, is the time-series sampler the soak drives,
	// and its registry receives the engine and faultnet metric families.
	// nomadd passes the sampler it has already mounted on /debug/dash, so
	// the live dashboard and the soak's flatness evidence read the same
	// rings. Nil builds a private one over a private registry.
	Sampler *obs.Sampler
	// Out receives the human/grep-able report lines; nil discards them.
	Out io.Writer
}

// defaultSoakFaults is chaos that hurts without stopping progress: refused
// and mid-stream-reset connections force the retry and replay machinery,
// brief stalls add latency jitter.
func defaultSoakFaults() faultnet.StreamFaults {
	return faultnet.StreamFaults{
		Refuse:        0.05,
		Reset:         0.10,
		ResetAfterMin: 256,
		ResetAfterMax: 64 << 10,
		Stall:         0.02,
		StallFor:      2 * time.Millisecond,
	}
}

// SoakReport is RunSoak's outcome. Digest, Records, Batches, Events, and
// Devices are deterministic for a seed; fault and retry counts are not
// (they depend on connection interleaving) and are reported for color only.
type SoakReport struct {
	Devices, Days, Shards int
	Events                int64
	UploadAttempts        int64
	Records, Batches      uint64
	DupBatches            uint64
	Digest                string
	UploadFailures        int64
	DroppedBatches        int64
	FlushRounds           int
	Faults                faultnet.Stats
	Elapsed               time.Duration

	// Flatness evidence: quarter-median HeapInuse (third vs last quarter)
	// and queue-entry gauge (second vs last quarter — same phase of the
	// daily cycle), produced by obs.SeriesCheck over the sampler's rings;
	// see soakHeapFlat and soakQueueFlat. SeriesChecks holds the full
	// verdicts (including any extra checks the caller bound).
	Samples              int
	HeapEarly, HeapLate  uint64
	QueueEarly, QueueLat int64
	MemFlat, QueueFlat   bool
	Drained              bool
	SeriesChecks         []obs.CheckResult
}

// OK reports whether every soak assertion held: nothing dropped, queues
// fully drained, and both gauges flat.
func (r *SoakReport) OK() bool {
	return r.DroppedBatches == 0 && r.Drained && r.MemFlat && r.QueueFlat
}

// Soak check names, as they appear in SoakReport.SeriesChecks, on
// /debug/timeseries, in obsreport output, and behind /healthz.
const (
	// SoakHeapCheck asserts the process heap series went flat.
	SoakHeapCheck = "soak-heap-flat"
	// SoakQueueCheck asserts the fleet queue-entries series went flat.
	SoakQueueCheck = "soak-queue-flat"
)

// soakHeapSeries and soakQueueSeries are the series keys the checks bind to.
const (
	soakHeapSeries  = "locind_runtime_heap_inuse_bytes"
	soakQueueSeries = "locind_nomad_engine_queue_entries"
)

// The two gauges have different shapes, so each gets the comparison window
// that catches its leak without tripping on its warm-up. RunSoak binds these
// checks and its report quotes the same two quarters as early= and late=.
//
// HeapInuse ramps then plateaus — every device's record buffer ratchets up
// to its personal high-water capacity, and at 1M devices that tail runs deep
// into day two — so memory compares the second half's two quarters (Q3 vs
// Q4). A retention leak — O(records) growth, ~50B × millions of records per
// quarter — dwarfs the slack; the decaying capacity ratchet fits inside it.
//
// Queue depth is periodic with the virtual day (pending records build
// through cellular stretches and drain at WiFi dwells), so adjacent quarters
// sit at different phases of the cycle. It compares Q2 vs Q4 — half the run
// apart, which at the 2-day soak shape is exactly one virtual day, i.e. the
// same phase — where unbounded growth still doubles the median but the
// daily swing cancels out.
//
// The constant terms absorb GC phase noise and quantization on CI-sized
// runs.
var (
	soakHeapFlat  = obs.Flatness{EarlyQuarter: 2, LateQuarter: 3, RelSlack: 0.25, AbsSlack: 32 << 20}
	soakQueueFlat = obs.Flatness{EarlyQuarter: 1, LateQuarter: 3, RelSlack: 1, AbsSlack: 1024}
)

// RunSoak drives the soak to completion and writes the report lines to
// cfg.Out. A non-nil error means the soak could not run or an assertion
// failed; the returned report is non-nil whenever the pipeline ran.
func RunSoak(ctx context.Context, cfg SoakConfig) (*SoakReport, error) {
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("soak: need positive devices, have %d", cfg.Devices)
	}
	if cfg.Days <= 0 {
		cfg.Days = 2
	}
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	shards := par.Workers(cfg.Shards)
	if shards > cfg.Devices {
		shards = cfg.Devices
	}

	smp := cfg.Sampler
	if smp == nil {
		smp = obs.NewSampler(obs.NewRegistry(), 0)
	}
	reg := smp.Registry()
	prof := obs.NewProfiler(reg)
	begin := time.Now()                                            //lint:allow determinism wall-clock phase timing is reporting, never simulation state
	prof.SetNow(func() time.Duration { return time.Since(begin) }) //lint:allow determinism same: profiler phase walls

	// Substrate: internetwork, address plan, streaming fleet.
	ph := prof.Begin("soak-build")
	acfg := asgraph.DefaultSynthConfig()
	acfg.Tier2 = 80
	acfg.Stubs = 700
	g, err := asgraph.Synthesize(acfg, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	pt, err := bgp.NewPrefixTable(g, 1)
	if err != nil {
		return nil, err
	}
	dcfg := mobility.DefaultDeviceConfig()
	dcfg.Days = cfg.Days
	fleet, err := mobility.NewFleetGen(g, pt, dcfg, cfg.Seed+1)
	if err != nil {
		return nil, err
	}

	// The ingest server on a real socket, behind the chaos listener.
	srv := nomad.NewStreamingServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := faultnet.NewEnv(cfg.Seed + 2)
	env.SetMetrics(faultnet.NewMetrics(reg))
	go ingest.Serve(faultnet.WrapListener(ln, env, defaultSoakFaults()), srv) //nolint:errcheck // Accept's error once ln closes
	defer ln.Close()
	base := "http://" + ln.Addr().String()

	// One engine per shard over a contiguous device range. Each engine owns
	// its retry rng, generation scratch — and its own metric
	// series labeled shard="<i>", so the dashboard's ?by=shard view shows
	// every engine's queues individually; fleet-wide rollups are derived
	// per tick below.
	ranges := par.Shards(cfg.Devices, shards)
	engines := make([]*Engine, len(ranges))
	shardMets := make([]*Metrics, len(ranges))
	for i, r := range ranges {
		shardMets[i] = NewShardMetrics(reg, i)
		engines[i], err = New(Config{
			Fleet:    fleet,
			UserBase: r[0],
			Devices:  r[1] - r[0],
			Days:     cfg.Days,
			// Each upload dials fresh, like a device coming online — which
			// is also what exposes every upload to the per-connection chaos
			// decisions (a keep-alive pool would sail most of the run
			// through a few lucky connections).
			Uploader:         &nomad.Client{BaseURL: base},
			UploadRetries:    3,
			Backoff:          reliable.Backoff{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond, Jitter: 0.5},
			Rand:             rand.New(rand.NewSource(cfg.Seed + 3 + int64(i))),
			MaxPending:       512,
			MaxQueuedBatches: 64,
			FlushAtEnd:       true,
			GracefulUploads:  true,
			Metrics:          shardMets[i],
		})
		if err != nil {
			return nil, err
		}
	}
	ph.End()

	// Time-series sampling: a rollup pre-hook sums the per-shard gauges
	// into the unlabeled fleet series (the ones the flatness checks watch)
	// and derives per-shard events/s from counter deltas; the runtime hook
	// records heap. The soak starts and joins Sampler.Run, so nomadd's
	// mounted sampler ticks exactly while the pipeline runs.
	rollQE := reg.Gauge(soakQueueSeries, "device-buffered records awaiting store")
	rollQB := reg.Gauge("locind_nomad_engine_queue_batches", "sealed batches awaiting upload")
	evRate := make([]*obs.Gauge, len(engines))
	lastEv := make([]int64, len(engines))
	for i := range engines {
		evRate[i] = reg.Gauge("locind_nomad_engine_events_per_sec", "visit events processed per second", "shard", strconv.Itoa(i))
	}
	tickSecs := obs.SampleEvery.Seconds()
	smp.Pre(func() {
		var qe, qb int64
		for i, m := range shardMets {
			qe += m.QueueEntries.Value()
			qb += m.QueueBatches.Value()
			ev := m.Events.Value()
			evRate[i].Set(int64(float64(ev-lastEv[i]) / tickSecs))
			lastEv[i] = ev
		}
		rollQE.Set(qe)
		rollQB.Set(qb)
	})
	smp.Pre(obs.RuntimeSampler(reg))

	// The flatness assertions ride on the series: same windows, same slack
	// as the original hand-rolled quartile code (see soakHeapFlat), now
	// evaluated by obs.SeriesCheck so /healthz degrades live if a gauge
	// stops being flat mid-run.
	smp.Check(SoakHeapCheck, soakHeapSeries, soakHeapFlat)
	smp.Check(SoakQueueCheck, soakQueueSeries, soakQueueFlat)

	smpCtx, stop := context.WithCancel(ctx)
	defer stop()
	var smWG sync.WaitGroup
	smWG.Add(1)
	go func() {
		defer smWG.Done()
		smp.Run(smpCtx)
	}()

	// The soak proper: every shard to completion, then flush rounds until
	// the chaos lets the last stragglers through.
	ph = prof.Begin("soak-run")
	errs := make([]error, len(engines))
	runErr := par.ForEachCtx(ctx, len(engines), len(engines), func(i int) {
		errs[i] = engines[i].Run(ctx)
	})
	ph.End()
	for _, err := range errs {
		if err != nil && runErr == nil {
			runErr = err
		}
	}
	rep := &SoakReport{Devices: cfg.Devices, Days: cfg.Days, Shards: len(engines)}
	if runErr == nil {
		ph = prof.Begin("soak-flush")
		left := make([]int, len(engines))
		for rep.FlushRounds = 0; rep.FlushRounds < 10; {
			rep.FlushRounds++
			if err := par.ForEachCtx(ctx, len(engines), len(engines), func(i int) {
				n, err := engines[i].FlushAll(ctx)
				if err != nil && errs[i] == nil {
					errs[i] = err
				}
				left[i] = n
			}); err != nil {
				runErr = err
				break
			}
			remaining := 0
			for i := range left {
				remaining += left[i]
				if errs[i] != nil && runErr == nil {
					runErr = errs[i]
				}
			}
			if remaining == 0 || runErr != nil {
				break
			}
		}
		ph.End()
	}
	stop()
	smWG.Wait()
	if runErr != nil {
		return rep, runErr
	}

	// Evidence: deterministic totals, flatness, drain.
	rep.Elapsed = time.Since(begin) //lint:allow determinism elapsed wall time is reporting only; the digest never includes it
	for _, e := range engines {
		rep.Events += e.Steps()
		rep.UploadAttempts += e.UploadAttempts()
	}
	snap := srv.Agg.Snapshot()
	rep.Records, rep.Batches, rep.DupBatches, rep.Digest = snap.Records, snap.Batches, snap.DupBatches, snap.Digest
	var queueBatches int64
	for _, m := range shardMets {
		rep.UploadFailures += m.UploadFailures.Value()
		rep.DroppedBatches += m.DroppedBatches.Value()
		queueBatches += m.QueueBatches.Value()
	}
	rep.Faults = env.Stats()
	queued := 0
	for _, e := range engines {
		queued += e.QueuedBatches()
	}
	rep.Drained = queued == 0 && queueBatches == 0

	// One last tick so even a sub-period run has end-state samples, then
	// the series checks render the verdicts.
	smp.Tick()
	rep.SeriesChecks = smp.EvalChecks()
	for _, c := range rep.SeriesChecks {
		switch c.Name {
		case SoakHeapCheck:
			rep.MemFlat = c.OK
		case SoakQueueCheck:
			rep.QueueFlat = c.OK
		}
	}
	heapVals := smp.Values(soakHeapSeries, nil)
	queueVals := smp.Values(soakQueueSeries, nil)
	rep.Samples = len(heapVals)
	heapQ := obs.QuarterMedians(heapVals)
	queueQ := obs.QuarterMedians(queueVals)
	rep.HeapEarly, rep.HeapLate = uint64(heapQ[soakHeapFlat.EarlyQuarter]), uint64(heapQ[soakHeapFlat.LateQuarter])
	rep.QueueEarly, rep.QueueLat = int64(queueQ[soakQueueFlat.EarlyQuarter]), int64(queueQ[soakQueueFlat.LateQuarter])

	writeSoakReport(out, rep, prof)
	if !rep.OK() {
		return rep, fmt.Errorf("soak: assertions failed (dropped=%d drained=%v memFlat=%v queueFlat=%v)",
			rep.DroppedBatches, rep.Drained, rep.MemFlat, rep.QueueFlat)
	}
	return rep, nil
}

// writeSoakReport renders the grep-able soak evidence. CI keys on the
// "digest=" line (byte-identical across same-seed runs) and the trailing
// OK/FAIL verdicts.
func writeSoakReport(w io.Writer, r *SoakReport, prof *obs.Profiler) {
	// Rendered into a builder (whose writes cannot fail) and flushed once,
	// so a broken pipe surfaces as one checked write instead of seven.
	const mb = 1 << 20
	b := &strings.Builder{}
	fmt.Fprintf(b, "soak: %d devices x %d days over %d shards in %v (%d events, %d upload attempts)\n",
		r.Devices, r.Days, r.Shards, r.Elapsed.Round(time.Millisecond), r.Events, r.UploadAttempts)
	fmt.Fprintf(b, "soak: chaos: %d refused, %d reset, %d stalled; %d duplicate batches absorbed, %d upload deferrals\n",
		r.Faults.Refused, r.Faults.Reset, r.Faults.Stalled, r.DupBatches, r.UploadFailures)
	for _, ph := range prof.Phases() {
		fmt.Fprintf(b, "soak: phase %-10s wall=%-8v allocs=%dMB\n", ph.Name, ph.Wall.Round(time.Millisecond), ph.AllocBytes/mb)
	}
	verdict := func(ok bool) string {
		if ok {
			return "OK"
		}
		return "FAIL"
	}
	fmt.Fprintf(b, "soak: memory flat: early=%dMB late=%dMB %s\n", r.HeapEarly/mb, r.HeapLate/mb, verdict(r.MemFlat))
	fmt.Fprintf(b, "soak: queue flat: early=%d late=%d %s\n", r.QueueEarly, r.QueueLat, verdict(r.QueueFlat))
	fmt.Fprintf(b, "soak: queue drained: final=0 dropped=%d flushRounds=%d %s\n",
		r.DroppedBatches, r.FlushRounds, verdict(r.Drained && r.DroppedBatches == 0))
	fmt.Fprintf(b, "soak: digest=%s records=%d batches=%d events=%d devices=%d days=%d\n",
		r.Digest, r.Records, r.Batches, r.Events, r.Devices, r.Days)
	io.WriteString(w, b.String()) //lint:allow errflow soak evidence is best-effort console output; the report struct is the API
}
