// Command locind regenerates the paper's evaluation: every table and figure
// of "Towards a Quantitative Comparison of Location-Independent Network
// Architectures" (SIGCOMM 2014), computed over the synthesized internetwork
// and measured-workload substitutes described in DESIGN.md.
//
// Usage:
//
//	locind [flags] <experiment>...
//
// Experiments: table1 fig6 fig7 fig8 fig9 fig10 fig11a fig11b fig11c fig12
// sensitivity envelope ablate netsim gns-cluster all
//
// Flags:
//
//	-seed N      master seed (default 20140817)
//	-quick       run at ~1/10 scale (fast; used by CI)
//	-parallel N  worker count of the evaluation drivers and timeline
//	             generation (0 = GOMAXPROCS); world synthesis uses
//	             every core; output is bit-identical at any value
//	-obs.addr    serve /metrics, /debug/pprof and /debug/traces on
//	             this address (empty = disabled; output is
//	             byte-identical either way, DESIGN.md §8)
//	-obs.linger  keep the introspection endpoint up this long after
//	             the experiments finish
//	-report DIR  write a per-phase run profile (RUNREPORT.md +
//	             runreport.json) and the run's sampled time series
//	             (timeseries.json, cmd/obsreport input) into DIR; counter
//	             deltas are deterministic for a fixed seed, timing columns
//	             and time series are not
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"locind/internal/cdn"
	"locind/internal/expt"
	"locind/internal/obs"
	"locind/internal/par"
)

func main() {
	var o runOpts
	flag.Int64Var(&o.seed, "seed", 0, "master seed (0 = config default)")
	flag.BoolVar(&o.quick, "quick", false, "run at reduced scale")
	flag.StringVar(&o.out, "out", "", "directory to export raw data (trace CSV, RIB dumps, figure series)")
	flag.IntVar(&o.parallel, "parallel", 0, "worker count of the evaluation drivers and timeline generation (0 = GOMAXPROCS; world synthesis uses every core); output is identical for any value and any core count")
	flag.StringVar(&o.obsAddr, "obs.addr", "", "serve /metrics, /debug/pprof and /debug/traces on this address (empty = disabled)")
	flag.DurationVar(&o.obsLinger, "obs.linger", 0, "keep the introspection endpoint up this long after the experiments finish (lets scrapers reach a batch run)")
	flag.StringVar(&o.report, "report", "", "directory to write the per-phase run profile into (RUNREPORT.md + runreport.json + timeseries.json; empty = disabled)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if err := run(args, o); err != nil {
		fmt.Fprintln(os.Stderr, "locind:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: locind [-seed N] [-quick] [-parallel N] [-obs.addr HOST:PORT [-obs.linger D]] [-report DIR] <experiment>...

experiments:
  table1       §5 analytic model: stretch vs update cost on toy topologies
  fig6         distinct network locations per user per day
  fig7         transitions across network locations per day
  fig8         device mobility update rate per collector
  fig9         dominant-location dwell fractions
  fig10        indirection stretch: latency + AS-hop lower bound
  fig11a       popular content mobility events per day
  fig11b       popular content update rate per collector
  fig11c       unpopular content update rate per collector
  fig12        FIB aggregateability of popular names
  sensitivity  §6.2.2 robustness: days, RIPE set, IMAP-proxy correlation
  envelope     back-of-the-envelope update loads
  ablate       forwarding-strategy and collector-feed ablations
  netsim       packet-level comparison of the three architectures
  gns-cluster  chaos soak of the sharded, replicated GNS cluster
               (1M names; minutes of wall clock — use -quick for CI scale;
               not part of "all")
  all          everything above except gns-cluster
`)
}

var deviceExperiments = map[string]bool{
	"fig6": true, "fig7": true, "fig8": true, "fig9": true, "fig10": true,
	"fig11a": true, "fig11b": true, "fig11c": true, "fig12": true,
	"sensitivity": true, "envelope": true, "ablate": true,
}

// runOpts carries the flag-settable knobs of one invocation.
type runOpts struct {
	seed      int64
	quick     bool
	out       string
	parallel  int
	obsAddr   string
	obsLinger time.Duration
	report    string
}

func run(args []string, o runOpts) error {
	seed, quick, out, parallel := o.seed, o.quick, o.out, o.parallel
	obsAddr, obsLinger := o.obsAddr, o.obsLinger
	want := map[string]bool{}
	for _, a := range args {
		a = strings.ToLower(a)
		if a == "all" {
			want["table1"] = true
			want["netsim"] = true
			for k := range deviceExperiments {
				want[k] = true
			}
			continue
		}
		if a != "table1" && a != "netsim" && a != "gns-cluster" && !deviceExperiments[a] {
			return fmt.Errorf("unknown experiment %q (run without arguments for the list)", a)
		}
		want[a] = true
	}

	cfg := expt.DefaultConfig()
	if quick {
		cfg = expt.QuickConfig()
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Parallel = parallel

	// Observability is strictly additive: the same seed renders the same
	// bytes with or without the endpoint or the profiler (obs_test.go holds
	// the engine to that), so flipping -obs.addr or -report on can never
	// change a result.
	var tracer *obs.Tracer
	var profiler *obs.Profiler
	var smp *obs.Sampler
	var gnsObs *expt.GNSClusterObs
	if obsAddr != "" || o.report != "" {
		reg := obs.NewRegistry()
		cfg.Obs = expt.NewMetrics(reg)
		par.SetMetrics(par.NewMetrics(reg))
		begin := time.Now()
		// The sampler feeds /debug/dash and the -report time-series file;
		// its ticker is wall-clock but only reads atomic gauge/counter
		// values, so experiment output stays byte-identical (DESIGN.md §12).
		smp = obs.NewSampler(reg, 0)
		smp.Pre(obs.RuntimeSampler(reg))
		gnsObs = &expt.GNSClusterObs{Registry: reg, Sampler: smp}
		sampCtx, sampStop := context.WithCancel(context.Background())
		defer sampStop()
		go smp.Run(sampCtx)
		if obsAddr != "" {
			tracer = obs.NewTracer(cfg.Seed, 0)
			tracer.SetNow(func() time.Duration { return time.Since(begin) })
			srv, err := obs.Serve(context.Background(), obsAddr,
				obs.NewHandler(obs.HandlerOpts{Reg: reg, Tracer: tracer, Sampler: smp}))
			if err != nil {
				return err
			}
			defer srv.Close() //nolint:errcheck // the process is exiting
			defer func() {
				if obsLinger > 0 {
					fmt.Fprintf(os.Stderr, "obs: lingering %v on http://%s\n", obsLinger, srv.Addr())
					time.Sleep(obsLinger)
				}
			}()
			fmt.Fprintf(os.Stderr, "obs: introspection on http://%s/metrics (dashboard: /debug/dash)\n", srv.Addr())
		}
		if o.report != "" {
			profiler = obs.NewProfiler(reg)
			profiler.SetNow(func() time.Duration { return time.Since(begin) })
			// The report is written even when an experiment fails partway:
			// a profile of the phases that did run is exactly what you want
			// when debugging the failure.
			defer func() {
				if err := writeReport(profiler, smp, o.report); err != nil {
					fmt.Fprintln(os.Stderr, "locind: writing run report:", err)
				}
			}()
		}
	}

	if want["table1"] {
		ph := profiler.Begin("table1")
		n := 255
		if quick {
			n = 63
		}
		fmt.Println(expt.RunTable1(n, 100, 500, cfg.Seed).Render())
		ph.End()
	}
	if want["netsim"] {
		ph := profiler.Begin("netsim")
		err := func() error {
			res, err := expt.RunNetsim(cfg.Seed)
			if err != nil {
				return err
			}
			fmt.Println(res.Render())
			traffic, err := expt.RunContentTraffic(cfg.Seed)
			if err != nil {
				return err
			}
			fmt.Println(traffic.Render())
			comp, err := expt.RunCompact(cfg.Seed)
			if err != nil {
				return err
			}
			fmt.Println(comp.Render())
			return nil
		}()
		ph.End()
		if err != nil {
			return err
		}
	}

	if want["gns-cluster"] {
		ph := profiler.Begin("gns-cluster")
		res, err := expt.RunGNSClusterObserved(cfg.Seed, quick, gnsObs)
		ph.End()
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	}

	needWorld := out != ""
	for k := range want {
		if deviceExperiments[k] {
			needWorld = true
		}
	}
	if !needWorld {
		return nil
	}
	fmt.Fprintf(os.Stderr, "building world (seed %d, %d ASes, %d users)...\n",
		cfg.Seed, cfg.AS.Tier1+cfg.AS.Tier2+cfg.AS.Stubs, cfg.Device.Users)
	buildSpan := tracer.Start("build-world")
	buildPhase := profiler.Begin("build-world")
	w, err := expt.BuildWorld(cfg)
	buildPhase.End()
	buildSpan.End()
	if err != nil {
		return err
	}

	// Run in the paper's presentation order.
	order := []string{"fig6", "fig7", "fig8", "sensitivity", "envelope",
		"fig9", "fig10", "fig11a", "fig11b", "fig11c", "fig12", "ablate"}
	var fig8 expt.Fig8Result
	var fig9 expt.Fig9Result
	haveFig8, haveFig9 := false, false
	ensure8 := func() expt.Fig8Result {
		if !haveFig8 {
			fig8 = expt.RunFig8(w)
			haveFig8 = true
		}
		return fig8
	}
	ensure9 := func() expt.Fig9Result {
		if !haveFig9 {
			fig9 = expt.RunFig9(w)
			haveFig9 = true
		}
		return fig9
	}
	for _, k := range order {
		if !want[k] {
			continue
		}
		span := tracer.Start("experiment", "name", k)
		ph := profiler.Begin(k)
		err := func() error {
			switch k {
			case "fig6":
				fmt.Println(expt.RunFig6(w).Render())
			case "fig7":
				fmt.Println(expt.RunFig7(w).Render())
			case "fig8":
				fmt.Println(ensure8().Render())
			case "sensitivity":
				res, err := expt.RunSensitivity(w)
				if err != nil {
					return err
				}
				fmt.Println(res.Render())
			case "envelope":
				fmt.Println(expt.RunEnvelope(w, ensure8(), ensure9()).Render())
			case "fig9":
				fmt.Println(ensure9().Render())
			case "fig10":
				fmt.Println(expt.RunFig10(w).Render())
			case "fig11a":
				fmt.Println(expt.RunFig11a(w).Render())
			case "fig11b":
				fmt.Println(expt.RunFig11bc(w, cdn.Popular).Render())
			case "fig11c":
				fmt.Println(expt.RunFig11bc(w, cdn.Unpopular).Render())
			case "fig12":
				fmt.Println(expt.RunFig12(w).Render())
			case "ablate":
				fmt.Println(expt.RunStrategyAblation(w).Render())
				sweep, err := expt.RunSessionSweep(w, []int{2, 4, 8, 16, 24, 36})
				if err != nil {
					return err
				}
				fmt.Println(sweep.Render())
				intra, err := expt.RunIntradomain(cfg.Seed)
				if err != nil {
					return err
				}
				fmt.Println(intra.Render())
			}
			return nil
		}()
		ph.End()
		span.End()
		if err != nil {
			return err
		}
	}
	if out != "" {
		fmt.Fprintf(os.Stderr, "exporting raw data to %s...\n", out)
		ph := profiler.Begin("export")
		err := expt.ExportAll(w, out)
		ph.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// writeReport renders the profiler's phase record into dir as RUNREPORT.md
// (human-readable) and runreport.json (machine-readable), plus the run's
// time-series rings as timeseries.json (cmd/obsreport input).
func writeReport(p *obs.Profiler, smp *obs.Sampler, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var md, js strings.Builder
	p.WriteReport(&md)
	p.WriteJSON(&js)
	if err := os.WriteFile(filepath.Join(dir, "RUNREPORT.md"), []byte(md.String()), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "runreport.json"), []byte(js.String()), 0o644); err != nil {
		return err
	}
	smp.Tick() // final sample so short runs aren't empty
	ts, err := smp.Dump().JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "timeseries.json"), ts, 0o644)
}
