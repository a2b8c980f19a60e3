// Command locind regenerates the paper's evaluation: every table and figure
// of "Towards a Quantitative Comparison of Location-Independent Network
// Architectures" (SIGCOMM 2014), computed over the synthesized internetwork
// and measured-workload substitutes described in DESIGN.md.
//
// Usage:
//
//	locind [flags] <experiment>...
//
// `locind -h` lists the flags and the experiments (expt.Experiments), in
// the order they run. With -out DIR every experiment that ran writes its
// figure series into DIR, beside the device trace and the RouteViews RIB
// dumps.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"locind/internal/expt"
	"locind/internal/ingest"
	"locind/internal/obs"
	"locind/internal/par"
)

func main() {
	var o runOpts
	flag.Int64Var(&o.seed, "seed", 0, "master seed `N` (0 = config default)")
	flag.BoolVar(&o.quick, "quick", false, "run at ~1/10 scale (fast; used by CI)")
	flag.StringVar(&o.out, "out", "", "write raw data into `DIR`: the device trace CSV, the RouteViews RIB dumps and the figure series of the experiments that ran")
	flag.IntVar(&o.parallel, "parallel", 0, "`N` workers for the evaluation drivers and timeline generation (0 = GOMAXPROCS; world synthesis uses every core); output is identical for any value and any core count")
	flag.StringVar(&o.obsAddr, "obs.addr", "", "serve /metrics, /debug/pprof and /debug/traces on `HOST:PORT` (empty = disabled; output is byte-identical either way)")
	flag.DurationVar(&o.obsLinger, "obs.linger", 0, "keep the introspection endpoint up for `D` after the experiments finish (lets scrapers reach a batch run)")
	flag.StringVar(&o.report, "report", "", "write the per-phase run profile into `DIR` (RUNREPORT.md + runreport.json + timeseries.json; empty = disabled); counter deltas replay exactly for a seed, timings and time series do not")
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
	fmt.Fprintln(os.Stderr, "usage: locind [flags] <experiment>...\n\nflags:")
	flag.PrintDefaults()
	fmt.Fprint(os.Stderr, "\nexperiments, in the order they run:\n", expt.Usage())
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
	sel, err := expt.Select(args)
	if err != nil {
		return err
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
		sampCtx, sampStop := context.WithCancel(context.Background())
		defer sampStop()
		go smp.Run(sampCtx)
		if obsAddr != "" {
			tracer = obs.NewTracer(cfg.Seed, 0)
			tracer.SetNow(func() time.Duration { return time.Since(begin) })
			ln, err := net.Listen("tcp", obsAddr)
			if err != nil {
				return err
			}
			defer ln.Close()
			go ingest.Serve(ln, obs.NewHandler(smp, tracer)) //nolint:errcheck // Accept's error once ln closes
			defer func() {
				if obsLinger > 0 {
					fmt.Fprintf(os.Stderr, "obs: lingering %v on http://%s\n", obsLinger, ln.Addr())
					time.Sleep(obsLinger)
				}
			}()
			fmt.Fprintf(os.Stderr, "obs: introspection on http://%s/metrics (dashboard: /debug/dash)\n", ln.Addr())
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

	// step runs fn as one phase of the run: a trace span and a profiler
	// phase, opened together and ended together.
	step := func(phase, span string, fn func() error, labels ...string) error {
		sp := tracer.Start(span, labels...)
		ph := profiler.Begin(phase)
		err := fn()
		ph.End()
		sp.End()
		return err
	}
	s := &expt.Session{Cfg: cfg, Quick: quick, GNSObs: smp}
	buildWorld := func() error {
		if s.World != nil {
			return nil
		}
		fmt.Fprintf(os.Stderr, "building world (seed %d, %d ASes, %d users)...\n",
			cfg.Seed, cfg.AS.Tier1+cfg.AS.Tier2+cfg.AS.Stubs, cfg.Device.Users)
		return step("build-world", "build-world", func() (err error) {
			s.World, err = expt.BuildWorld(cfg)
			return err
		})
	}
	// The content timelines are generated in a phase of their own before
	// the first entry that reads them, so no entry's row carries their cost.
	timelines := false
	var series []expt.CSV
	for _, e := range sel {
		if e.World {
			if err := buildWorld(); err != nil {
				return err
			}
		}
		if e.Timelines && !timelines {
			step("timelines", "timelines", func() error { s.World.Timelines(); return nil })
			timelines = true
		}
		var res expt.Output
		if err := step(e.Name, "experiment", func() (err error) {
			res, err = e.Run(s)
			return err
		}, "name", e.Name); err != nil {
			return err
		}
		fmt.Println(res.Text)
		series = append(series, res.Series...)
	}
	if out == "" {
		return nil
	}
	if err := buildWorld(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "exporting raw data to %s...\n", out)
	return step("export", "export", func() error { return expt.ExportAll(s.World, out, series) })
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
