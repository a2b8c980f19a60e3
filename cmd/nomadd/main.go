// Command nomadd demonstrates the NomadLog measurement pipeline end to end.
//
// In its default mode it starts the upload backend on a real TCP port,
// synthesizes a device fleet, replays every device's mobility trace through
// one event-heap engine (internal/nomad/engine: a record buffered per
// connectivity event, batched /upload flushes whenever the device sits on
// WiFi long enough to be "plugged in"), and reports what the server's
// streaming aggregates hold.
//
// With -soak it instead shards the engine over a million devices: engines
// stream the fleet day by day, upload through a faultnet chaos listener
// into the constant-memory streaming server, and the run reports
// flat-memory/flat-queue evidence plus a digest line that is
// byte-identical across same-seed soaks.
//
// Usage:
//
//	nomadd [-addr host:port] [-users N] [-days N] [-seed N]
//	nomadd -soak [-soak.devices N] [-soak.days N] [-soak.shards N]
//	nomadd -soak -soak.quick        # CI-sized smoke soak
//
// SIGINT/SIGTERM stop either mode gracefully: in-flight uploads drain and
// a final metrics snapshot is written before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/ingest"
	"locind/internal/mobility"
	"locind/internal/nomad"
	"locind/internal/nomad/engine"
	"locind/internal/obs"
	"locind/internal/reliable"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address for the backend")
	users := flag.Int("users", 40, "devices in the fleet (default mode)")
	days := flag.Int("days", 5, "days of mobility to replay (default mode)")
	seed := flag.Int64("seed", 1, "workload seed")
	obsAddr := flag.String("obs.addr", "", "serve /metrics and /debug/pprof on this address (empty = disabled)")
	soak := flag.Bool("soak", false, "run the sharded event-engine chaos soak instead of the small fleet")
	soakQuick := flag.Bool("soak.quick", false, "CI preset: a small, fast soak (implies -soak)")
	soakDevices := flag.Int("soak.devices", 1000000, "devices in the soak fleet")
	soakDays := flag.Int("soak.days", 2, "days of mobility in the soak")
	soakShards := flag.Int("soak.shards", 0, "engine shards (0 = one per core)")
	soakSeries := flag.String("soak.series", "", "write the soak's time-series dump (JSON, obsreport input) to this file")
	obsLinger := flag.Duration("obs.linger", 0, "keep the -obs.addr endpoint (and sampler ticks) alive this long after the soak, so dashboards can be scraped")
	flag.Parse()

	// Graceful shutdown: first SIGINT/SIGTERM cancels the run context —
	// engines stop at the next event boundary, in-flight uploads drain —
	// and the final metrics snapshot still prints. A second signal kills
	// the process the hard way (signal.NotifyContext restores defaults).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Both modes share the registry so the final snapshot and the
	// optional -obs.addr endpoint see the same families.
	reg := obs.NewRegistry()
	var err error
	if *soak || *soakQuick {
		cfg := engine.SoakConfig{
			Devices: *soakDevices,
			Days:    *soakDays,
			Seed:    *seed,
			Shards:  *soakShards,
			Out:     os.Stdout,
		}
		if *soakQuick {
			cfg.Devices = 2000
			cfg.Days = 2
		}
		err = runSoak(ctx, cfg, reg, *obsAddr, *soakSeries, *obsLinger)
	} else {
		err = runFleet(ctx, *addr, *users, *days, *seed, *obsAddr, reg)
	}
	writeFinalMetrics(reg)
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		fmt.Println("nomadd: interrupted; drained and shut down")
	default:
		fmt.Fprintln(os.Stderr, "nomadd:", err)
		os.Exit(1)
	}
}

// serveObs exposes /metrics, /debug/pprof and the /debug/timeseries +
// /debug/dash pair of smp when requested.
func serveObs(obsAddr string, tracer *obs.Tracer, smp *obs.Sampler) (func(), error) {
	if obsAddr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", obsAddr)
	if err != nil {
		return nil, err
	}
	go ingest.Serve(ln, obs.NewHandler(smp, tracer)) //nolint:errcheck // Accept's error once ln closes
	fmt.Printf("nomadd: introspection on http://%s/metrics (dashboard: /debug/dash)\n", ln.Addr())
	return func() { ln.Close() }, nil
}

// writeFinalMetrics flushes the closing metrics snapshot to stdout — the
// last thing either mode does, on clean exits and interrupts alike.
func writeFinalMetrics(reg *obs.Registry) {
	var b strings.Builder
	reg.WritePrometheus(&b)
	fmt.Println("nomadd: final metrics snapshot:")
	for _, ln := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		fmt.Println("  " + ln)
	}
}

// runSoak drives the event-engine chaos soak. The sampler mounted on
// /debug/dash is the very one the soak drives, so a browser pointed at
// -obs.addr watches the same rings the flatness checks judge.
func runSoak(ctx context.Context, cfg engine.SoakConfig, reg *obs.Registry, obsAddr, seriesPath string, linger time.Duration) error {
	smp := obs.NewSampler(reg, 0)
	cfg.Sampler = smp
	closeObs, err := serveObs(obsAddr, nil, smp)
	if err != nil {
		return err
	}
	defer closeObs()
	fmt.Printf("nomadd: soaking %d devices x %d days (seed %d)\n", cfg.Devices, cfg.Days, cfg.Seed)
	_, err = engine.RunSoak(ctx, cfg)
	// The series dump is evidence either way: a failed soak's shape is
	// exactly what obsreport is for.
	if seriesPath != "" {
		js, jerr := smp.Dump().JSON()
		if jerr == nil {
			jerr = os.WriteFile(seriesPath, js, 0o644)
		}
		if jerr != nil && err == nil {
			err = fmt.Errorf("writing -soak.series: %w", jerr)
		} else if jerr == nil {
			fmt.Printf("nomadd: time-series dump written to %s\n", seriesPath)
		}
	}
	if err == nil && linger > 0 && obsAddr != "" {
		fmt.Printf("nomadd: lingering %v for dashboard scrapes\n", linger)
		lingerCtx, cancel := context.WithTimeout(ctx, linger)
		defer cancel()
		smp.Run(lingerCtx) // at the interval RunSoak recorded
		return ctx.Err()
	}
	return err
}

// spanUploader roots one span per upload attempt and hands it to the client
// in ctx, so the server's store span parents onto it in /debug/traces. It
// keeps a copy of the first batch it sends, a sample of the §4 record
// schema for the report (the engine reuses the batch slice).
type spanUploader struct {
	engine.Uploader
	tracer *obs.Tracer
	first  []nomad.Entry
}

func (u *spanUploader) Upload(ctx context.Context, batchID string, batch []nomad.Entry) error {
	if u.first == nil {
		u.first = append([]nomad.Entry(nil), batch...)
	}
	span := u.tracer.Start("nomad-upload", "batch", batchID)
	defer span.End()
	return u.Uploader.Upload(obs.ContextWith(ctx, span), batchID, batch)
}

// runFleet is the small real-socket demonstration: one engine, one backend.
func runFleet(ctx context.Context, addr string, users, days int, seed int64, obsAddr string, reg *obs.Registry) error {
	// Substrate: a small internetwork and address plan for the fleet.
	acfg := asgraph.DefaultSynthConfig()
	acfg.Tier2 = 80
	acfg.Stubs = 700
	g, err := asgraph.Synthesize(acfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	pt, err := bgp.NewPrefixTable(g, 1)
	if err != nil {
		return err
	}
	dcfg := mobility.DefaultDeviceConfig()
	dcfg.Users = users
	dcfg.Days = days
	trace, err := mobility.GenerateDeviceTrace(g, pt, dcfg, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return err
	}

	// Observability: retry counters, engine counters, upload traces,
	// time-series sampling for /debug/dash, and the flight-recorder log on
	// an introspection port.
	met := engine.NewMetrics(reg)
	tracer := obs.NewTracer(seed, 0)
	begin := time.Now()
	tracer.SetNow(func() time.Duration { return time.Since(begin) })
	smp := obs.NewSampler(reg, 0)
	smp.Pre(obs.RuntimeSampler(reg))
	sampCtx, sampStop := context.WithCancel(ctx)
	defer sampStop()
	go smp.Run(sampCtx)
	closeObs, err := serveObs(obsAddr, tracer, smp)
	if err != nil {
		return err
	}
	defer closeObs()

	// The backend on a real socket. Sharing the tracer between client and
	// server sides merges their spans into one export, so /debug/traces
	// shows each upload's server-side store span under the device's batch.
	srv := nomad.NewStreamingServer()
	srv.Tracer = tracer
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	go ingest.Serve(ln, srv) //nolint:errcheck // Accept's error once ln closes
	defer ln.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("nomadd: backend listening on %s\n", base)

	up := &spanUploader{Uploader: nomad.NewClient(base), tracer: tracer}
	eng, err := engine.New(engine.Config{
		Fleet:           trace,
		Devices:         users,
		Days:            days,
		Uploader:        up,
		RetryMetrics:    reliable.NewMetrics(reg, "nomad"),
		GracefulUploads: true,
		Metrics:         met,
	})
	if err != nil {
		return err
	}
	if err := eng.Run(ctx); err != nil {
		return err
	}
	snap := srv.Agg.Snapshot()
	fmt.Printf("nomadd: fleet of %d devices replayed %d days\n", users, days)
	fmt.Printf("nomadd: %d records uploaded, %d devices in store\n", met.EntriesUploaded.Value(), snap.Devices)
	fmt.Printf("nomadd: store holds %d records in %d batches, digest %s\n", snap.Records, snap.Batches, snap.Digest)
	if n, first := srv.Refused(); n > 0 {
		fmt.Printf("nomadd: %d upload bodies refused, first: %v\n", n, first)
	}

	// A taste of the record schema, and of what the store keeps of it.
	if len(up.first) > 0 {
		dev := up.first[0].DeviceID
		fmt.Println("nomadd: first batch uploaded, from", dev)
		for _, e := range up.first {
			fmt.Printf("  %-22s t=%7.2fh %-15s %s\n", e.DeviceID, e.Time, e.IPAddr, e.NetType)
		}
		d, _ := srv.Agg.Device(dev)
		fmt.Printf("nomadd: %s in store: %d records (%d wifi, %d cellular) in %d batches, %d moves, t=%.2fh..%.2fh\n",
			dev, d.Records, d.WiFi, d.Cellular, d.Batches, d.Moves, d.FirstTime, d.LastTime)
	}
	return nil
}
