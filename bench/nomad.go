package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/faultnet"
	"locind/internal/mobility"
	"locind/internal/nomad"
	"locind/internal/nomad/engine"
	"locind/internal/obs"
	"locind/internal/reliable"
)

// nomadSoak is the device-side stack end to end: one single-shard engine
// streams a FleetGen fleet through reliable.Policy, nomad.Client on one
// keep-alive connection, a zero-fault faultnet listener and the streaming
// server into Aggregates. One op is one sealed-batch upload, timed at the
// engine.Uploader boundary; neither the evaluator nor the cluster runs.
//
// Dial-per-upload, as engine.RunSoak does it, is deliberately not used: at
// this rate it measures ephemeral-port reuse, not the program.
var nomadSoak = workload{
	name:   "nomad-soak",
	why:    "device-side stack end to end: engine, reliable.Policy, HTTP upload, faultnet listener, streaming ingest; no evaluator, no cluster",
	setups: 9, // a set-up takes under 0.1 s, too short for fewer to give a steady median
	warmup: 2000,
	ops:    260_000,
	tail:   true,
	size:   fullSize,
	new:    func(seed int64, sz sizes) instance { return &nomadRun{seed: seed, size: sz} },
	layers: nomadLayers,
}

// nomadDays is the length of the simulated study: long enough that the
// engine cannot finish it before the run's uploads are done.
const nomadDays = 60

type nomadRun struct {
	seed int64
	size sizes

	fleet  *mobility.FleetGen
	srv    *nomad.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	client *nomad.Client
	eng    *engine.Engine
	drops  *obs.Counter

	// Per-run state of the Uploader callback.
	m       *meter
	rec     *recorder
	cancel  context.CancelFunc
	uploads int // Upload calls made, warm-up included
	// What the server's handler goroutine needs of the above: the recorder
	// and the upload span its own span parents onto.
	srvRec  atomic.Pointer[recorder]
	curSpan atomic.Int64
}

// nomadFleet builds the substrate an engine streams: internetwork, address
// plan and on-demand fleet, sized like engine.RunSoak's.
func nomadFleet(seed int64) (*mobility.FleetGen, error) {
	acfg := asgraph.DefaultSynthConfig()
	acfg.Tier2 = 80
	acfg.Stubs = 700
	g, err := asgraph.Synthesize(acfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	pt, err := bgp.NewPrefixTable(g, 1)
	if err != nil {
		return nil, err
	}
	dcfg := mobility.DefaultDeviceConfig()
	dcfg.Days = nomadDays
	return mobility.NewFleetGen(g, pt, dcfg, seed+1)
}

// newEngine builds the single-shard engine over r.fleet with RunSoak's
// store-and-forward settings, uploading through up.
func (r *nomadRun) newEngine(up engine.Uploader, drops *obs.Counter) (*engine.Engine, error) {
	return engine.New(engine.Config{
		Fleet:            r.fleet,
		Devices:          r.size.devices,
		Days:             nomadDays,
		Uploader:         up,
		UploadRetries:    3,
		Backoff:          reliable.Backoff{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond, Jitter: 0.5},
		Rand:             rand.New(rand.NewSource(r.seed + 3)),
		MaxPending:       512,
		MaxQueuedBatches: 64,
		FlushAtEnd:       true,
		GracefulUploads:  true,
		// Bare counters, no registry: they only move when an upload has
		// already failed, so the untraced run pays nothing for them.
		Metrics: &engine.Metrics{DroppedBatches: drops},
	})
}

func (r *nomadRun) setup(context.Context) error {
	r.close()
	var err error
	if r.fleet, err = nomadFleet(r.seed); err != nil {
		return err
	}
	r.srv = nomad.NewStreamingServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// The server-side span closes here, around the whole handler; with no
	// recorder the wrapper is one nil check.
	r.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		rec := r.srvRec.Load()
		id := rec.begin("nomad.server_ingest", int(r.curSpan.Load()), -1)
		r.srv.ServeHTTP(w, q)
		rec.end(id)
	})}
	r.served = make(chan struct{})
	fln := faultnet.WrapListener(ln, faultnet.NewEnv(r.seed+2), faultnet.StreamFaults{})
	go func() {
		defer close(r.served)
		r.hs.Serve(fln) //nolint:errcheck // returns ErrServerClosed on close(); the run's checks catch anything else
	}()
	r.client = nomad.NewClient("http://" + ln.Addr().String())
	r.client.HTTP.Transport = &http.Transport{MaxIdleConnsPerHost: 1}
	r.drops = new(obs.Counter)
	r.eng, err = r.newEngine(r, r.drops)
	return err
}

// Upload implements engine.Uploader: it is where one op is timed.
func (r *nomadRun) Upload(ctx context.Context, batchID string, batch []nomad.Entry) error {
	r.uploads++
	id := r.rec.begin("nomad.upload", -1, r.uploads)
	r.curSpan.Store(int64(id))
	t := time.Now()
	err := r.client.Upload(ctx, batchID, batch)
	d := time.Since(t)
	r.rec.end(id)
	if r.m.observe(d, err) {
		r.cancel()
	}
	return err
}

func (r *nomadRun) run(ctx context.Context, m *meter, rec *recorder) error {
	ctx, r.cancel = context.WithCancel(ctx)
	defer r.cancel()
	r.m, r.rec = m, rec
	r.srvRec.Store(rec)
	if err := r.eng.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// refUploader feeds batches straight to an Aggregates, with no network in
// between, and stops the engine after n of them.
type refUploader struct {
	agg    *nomad.Aggregates
	n      int
	cancel context.CancelFunc
}

func (u *refUploader) Upload(_ context.Context, batchID string, batch []nomad.Entry) error {
	u.agg.IngestBatch(batchID, batch)
	if u.n--; u.n == 0 {
		u.cancel()
	}
	return nil
}

// check replays the same fleet through a second engine into a no-network
// reference and requires the served aggregates to match it exactly.
func (r *nomadRun) check(ctx context.Context) error {
	if n := r.drops.Value(); n != 0 {
		return fmt.Errorf("nomad-soak: %d batches dropped by backpressure", n)
	}
	if got := r.eng.UploadAttempts(); got != int64(r.uploads) {
		return fmt.Errorf("nomad-soak: engine made %d upload attempts, the bench saw %d", got, r.uploads)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ref := &refUploader{agg: nomad.NewAggregates(), n: r.uploads, cancel: cancel}
	eng, err := r.newEngine(ref, new(obs.Counter))
	if err != nil {
		return err
	}
	if err := eng.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	want, got := ref.agg.Snapshot(), r.srv.Agg.Snapshot()
	if got.Digest != want.Digest || got.Records != want.Records || got.Batches != want.Batches || got.DupBatches != 0 {
		return fmt.Errorf("nomad-soak: served aggregates %+v, no-network reference %+v", got, want)
	}
	if int(got.Batches) != r.uploads {
		return fmt.Errorf("nomad-soak: %d batches ingested, %d uploaded", got.Batches, r.uploads)
	}
	return nil
}

func (r *nomadRun) counts(out map[string]metric) {
	if r.uploads == 0 {
		return
	}
	out["events_per_upload"] = metric{float64(r.eng.Steps()) / float64(r.uploads), "count"}
	out["upload_attempts_per_batch"] = metric{float64(r.eng.UploadAttempts()) / float64(r.uploads), "count"}
	out["dropped_batches"] = metric{float64(r.drops.Value()), "count"}
}

func (r *nomadRun) close() {
	if r.hs == nil {
		return
	}
	r.hs.Close() //nolint:errcheck // teardown of a loopback listener
	<-r.served
	r.client.HTTP.CloseIdleConnections()
	r.hs = nil
}

// stubConn is a net.Conn that moves no bytes (see stubPacketConn).
type stubConn struct{ net.Conn }

func (stubConn) Read(p []byte) (int, error)  { return len(p), nil }
func (stubConn) Write(p []byte) (int, error) { return len(p), nil }

// nomadLayers is the layer budget of nomad-soak. Upload round trip and
// server-side ingest come from the traced run's spans; the engine step, the
// fleet generator, Aggregates and the faultnet stream wrapper are timed in
// isolation.
func nomadLayers(ctx context.Context, lc *layerCtx) error {
	total, _ := layerTimes(lc.spans)
	rtt, ingest := median(total["nomad.upload"]), median(total["nomad.server_ingest"])
	lc.out["nomad.upload_rtt_us"] = metric{rtt * 1e3, "us"}
	lc.out["nomad.server_ingest_us"] = metric{ingest * 1e3, "us"}
	lc.out["nomad.upload_unaccounted_pct"] = metric{100 * (rtt - ingest) / rtt, "%"}
	for _, name := range []string{"events_per_upload", "upload_attempts_per_batch", "dropped_batches"} {
		lc.out["engine."+name] = lc.traced.Info[name]
	}

	// The engine alone: same fleet, nil uploader, a few simulated days.
	r := &nomadRun{seed: lc.seed, size: lc.size}
	var err error
	if r.fleet, err = nomadFleet(lc.seed); err != nil {
		return err
	}
	const days = 3
	eng, err := engine.New(engine.Config{Fleet: r.fleet, Devices: lc.size.devices, Days: days, MaxPending: 512, MaxQueuedBatches: 64})
	if err != nil {
		return err
	}
	t := time.Now()
	if err := eng.Run(ctx); err != nil {
		return err
	}
	wall := time.Since(t)
	lc.out["engine.step_ns"] = metric{float64(wall) / float64(eng.Steps()), "ns"}
	lc.out["engine.events_per_s"] = metric{float64(eng.Steps()) / wall.Seconds(), "1/s"}

	users := lc.size.calls
	sc := mobility.NewDayScratch()
	var buf []mobility.Visit
	lc.out["mobility.fleet_day_ns"] = metric{nsPerCall(users, func() {
		for u := 0; u < users; u++ {
			var st mobility.UserState
			buf = r.fleet.Day(u, 0, &st, buf[:0], sc)
		}
	}), "ns"}
	if len(buf) == 0 {
		return fmt.Errorf("nomad layers: the fleet generated an empty day")
	}

	// Aggregates on real batches: capture what the engine seals.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	capt := &captureUploader{want: lc.size.calls, cancel: cancel}
	ceng, err := r.newEngine(capt, new(obs.Counter))
	if err != nil {
		return err
	}
	if err := ceng.Run(cctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	lc.out["nomad.aggregates_ingest_ns"] = metric{nsPerCall(len(capt.ids), func() {
		agg := nomad.NewAggregates()
		for i, id := range capt.ids {
			agg.IngestBatch(id, capt.batches[i])
		}
	}), "ns"}

	fc := faultnet.WrapConn(stubConn{}, faultnet.NewEnv(lc.seed), faultnet.StreamFaults{})
	p := make([]byte, 512)
	n := lc.size.calls
	lc.out["faultnet.stream_passthrough_ns"] = metric{nsPerCall(n, func() {
		for i := 0; i < n && err == nil; i++ {
			if _, err = fc.Write(p); err == nil {
				_, err = fc.Read(p)
			}
		}
	}), "ns"}
	return err
}

// captureUploader keeps copies of the first want batches an engine seals.
type captureUploader struct {
	want    int
	cancel  context.CancelFunc
	ids     []string
	batches [][]nomad.Entry
}

func (u *captureUploader) Upload(_ context.Context, batchID string, batch []nomad.Entry) error {
	u.ids = append(u.ids, batchID)
	u.batches = append(u.batches, append([]nomad.Entry(nil), batch...))
	if len(u.ids) == u.want {
		u.cancel()
	}
	return nil
}
