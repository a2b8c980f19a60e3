// Command vantaged demonstrates the PlanetLab-style content measurement of
// §7.1 end to end: it serves the collection controller over HTTP on a real
// port, synthesizes a content deployment with CDN delegation, launches
// vantage nodes that resolve every monitored name hourly through a partial
// locality-biased view and upload each day's observations, and verifies
// that the timelines the controller reconstructs from the merged union sets
// are event for event the ground-truth Addrs(d, t).
//
// Usage:
//
//	vantaged [-addr host:port] [-nodes N] [-domains N] [-days N] [-seed N]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"reflect"
	"time"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/ingest"
	"locind/internal/obs"
	"locind/internal/reliable"
	"locind/internal/vantage"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "controller listen address")
	nodes := flag.Int("nodes", 16, "vantage points")
	domains := flag.Int("domains", 12, "popular domains to monitor")
	days := flag.Int("days", 2, "measurement days (24 resolutions per day)")
	seed := flag.Int64("seed", 1, "workload seed")
	obsAddr := flag.String("obs.addr", "", "serve /metrics and /debug/pprof on this address (empty = disabled)")
	flag.Parse()

	if err := run(*addr, *nodes, *domains, *days, *seed, *obsAddr); err != nil {
		fmt.Fprintln(os.Stderr, "vantaged:", err)
		os.Exit(1)
	}
}

func run(addr string, nodes, domains, days int, seed int64, obsAddr string) error {
	if days < 1 {
		return fmt.Errorf("-days must be positive, have %d", days)
	}
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
	ccfg := cdn.DefaultConfig()
	ccfg.PopularDomains = domains
	ccfg.UnpopularDomains = domains / 2
	dep, err := cdn.Generate(g, pt, ccfg, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		return err
	}
	hours := 24 * days
	tls := dep.Timelines(hours, rand.New(rand.NewSource(seed+2)))

	ctx := context.Background()

	// Observability: campaign-wide retry counters, per-node traces and
	// time-series sampling for /debug/dash on an introspection port.
	var campaignMetrics *reliable.Metrics
	var tracer *obs.Tracer
	if obsAddr != "" {
		reg := obs.NewRegistry()
		campaignMetrics = reliable.NewMetrics(reg, "vantage")
		tracer = obs.NewTracer(seed, 0)
		begin := time.Now()
		tracer.SetNow(func() time.Duration { return time.Since(begin) })
		smp := obs.NewSampler(reg, 0)
		smp.Pre(obs.RuntimeSampler(reg))
		sampCtx, sampStop := context.WithCancel(ctx)
		defer sampStop()
		go smp.Run(sampCtx)
		oln, err := net.Listen("tcp", obsAddr)
		if err != nil {
			return err
		}
		defer oln.Close()
		go ingest.Serve(oln, obs.NewHandler(smp, tracer)) //nolint:errcheck // Accept's error once oln closes
		fmt.Printf("vantaged: introspection on http://%s/metrics (dashboard: /debug/dash)\n", oln.Addr())
	}

	// The controller on a real socket. Sharing the tracer between campaign
	// and controller merges both sides' spans, so /debug/traces shows each
	// day's commit parented onto the node span that posted it.
	ctrl := vantage.NewController()
	ctrl.Tracer = tracer
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	go ingest.Serve(ln, ctrl) //nolint:errcheck // Accept's error once ln closes
	fmt.Printf("vantaged: controller on %s, %d nodes, %d names, %d hourly rounds\n",
		ln.Addr(), nodes, len(tls), hours)
	cp := &vantage.Campaign{
		Controller: ln.Addr().String(),
		Nodes:      nodes,
		Retries:    2,
		Backoff:    reliable.Backoff{Base: 50 * time.Millisecond, Max: time.Second},
		Metrics:    campaignMetrics,
		Tracer:     tracer,
	}
	if err := errors.Join(cp.Run(ctx, tls), ln.Close()); err != nil {
		return err
	}

	fmt.Printf("vantaged: %d reports from %d nodes\n", ctrl.ReportCount(), ctrl.NodeCount())
	// Verify the reconstruction against the CDN ground truth: the timeline
	// the controller derives from the merged reports must be the one
	// cdn.FromSets derives from the generated sets, hour for hour and address
	// for address.
	sites := make([]cdn.Site, len(tls))
	for i := range tls {
		sites[i] = tls[i].Site
	}
	measured, err := ctrl.MeasuredTimelines(sites, hours)
	if err != nil {
		return err
	}
	mismatches := 0
	for i := range tls {
		if !reflect.DeepEqual(measured[i], cdn.FromSets(tls[i].Site, hours, tls[i].SetAt)) {
			mismatches++
		}
	}
	fmt.Printf("vantaged: merged-vs-truth mismatches: %d (want 0)\n", mismatches)
	if n, first := ctrl.Refused(); n > 0 {
		fmt.Printf("vantaged: %d upload bodies refused, first: %v\n", n, first)
	}
	// Show one name's measured mobility.
	if len(tls) > 0 {
		tl := &tls[0]
		fmt.Printf("vantaged: %s moved %d times over %d days; hour-0 set %v\n",
			tl.Site.Name, tl.EventCount(), days, ctrl.MergedSet(tl.Site.Name, 0))
	}
	if mismatches > 0 {
		return fmt.Errorf("union reconstruction failed for %d of %d names", mismatches, len(tls))
	}
	return nil
}
