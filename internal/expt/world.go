// Package expt contains one driver per table and figure of the paper's
// evaluation. Each driver consumes a World (the synthesized internetwork,
// collectors, and measured workloads), computes the quantity the paper
// plots, and renders the same rows/series the paper reports, so that
// `locind all` regenerates the entire evaluation and EXPERIMENTS.md can
// record paper-vs-measured values side by side.
package expt

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/mobility"
)

// Config collects every substrate parameter behind one seed. Deriving all
// RNG streams from Seed makes any experiment reproducible bit for bit.
type Config struct {
	Seed int64

	// Parallel bounds the worker count of the parallel evaluation drivers
	// and of timeline generation: N workers when positive, GOMAXPROCS when
	// zero or negative. Every value — including 1 — produces bit-identical
	// results; the knob only trades wall-clock time. World synthesis does not
	// read it: bgp.BuildCollectors uses every core and builds the same
	// tables at any core count.
	Parallel int

	AS            asgraph.SynthConfig
	Device        mobility.DeviceConfig
	CDN           cdn.Config
	MoreSpecifics int // /24 announcements per AS in the address plan

	// ContentDays is the measurement window of the §7 sweep (the paper
	// measured May 1-22, 2014: three weeks).
	ContentDays int

	// IPlaneTraces is the traceroute budget of the iPlane substitute,
	// tuned so coverage over dominant/current pairs lands near the paper's
	// 5% response rate.
	IPlaneTraces int

	// IMAPUsers sizes the §6.2.2 sensitivity workload (7137 users in the
	// paper).
	IMAPUsers int
	IMAPDays  int

	// Obs, when non-nil, attaches observability counters to the drivers
	// (progress, rows, memo lookups). Purely additive: results are
	// byte-identical with Obs set or nil.
	Obs *Metrics
}

// DefaultConfig is the full paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		Seed:          20140817, // SIGCOMM'14 opening day
		AS:            asgraph.DefaultSynthConfig(),
		Device:        mobility.DefaultDeviceConfig(),
		CDN:           cdn.DefaultConfig(),
		MoreSpecifics: 1,
		ContentDays:   21,
		IPlaneTraces:  260,
		IMAPUsers:     7137,
		IMAPDays:      7,
	}
}

// QuickConfig is a scaled-down configuration for tests and the quickstart
// example: the same pipeline at roughly a tenth the size.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.AS.Tier2 = 80
	cfg.AS.Stubs = 700
	cfg.Device.Users = 80
	cfg.Device.Days = 7
	cfg.CDN.PopularDomains = 80
	cfg.CDN.UnpopularDomains = 80
	cfg.ContentDays = 7
	cfg.IPlaneTraces = 120
	cfg.IMAPUsers = 400
	cfg.IMAPDays = 5
	return cfg
}

// World is everything the experiment drivers share: the internetwork, the
// address plan, both collector sets, the device workload, and the content
// deployment. Content timelines are generated lazily (they are only needed
// by the §7 figures).
type World struct {
	Cfg        Config
	Graph      *asgraph.Graph
	Prefixes   *bgp.PrefixTable
	RouteViews []*bgp.Collector
	RIPE       []*bgp.Collector
	Devices    *mobility.DeviceTrace
	Deployment *cdn.Deployment

	timelinesOnce sync.Once
	timelines     []cdn.Timeline // popular sites first, each class in site order
	nPopular      int            // timelines[:nPopular] are the popular sites
}

// BuildWorld synthesizes a World from cfg.
func BuildWorld(cfg Config) (*World, error) {
	// Independent, deterministic RNG streams per subsystem so a change in
	// one generator does not reshuffle another.
	rngGraph := rand.New(rand.NewSource(cfg.Seed + 1))
	rngCols := rand.New(rand.NewSource(cfg.Seed + 2))
	rngDev := rand.New(rand.NewSource(cfg.Seed + 3))
	rngCDN := rand.New(rand.NewSource(cfg.Seed + 4))

	g, err := asgraph.Synthesize(cfg.AS, rngGraph)
	if err != nil {
		return nil, fmt.Errorf("expt: synthesize AS graph: %w", err)
	}
	pt, err := bgp.NewPrefixTable(g, cfg.MoreSpecifics)
	if err != nil {
		return nil, fmt.Errorf("expt: address plan: %w", err)
	}
	specs := append(append([]bgp.Spec{}, bgp.RouteViewsSpecs()...), bgp.RIPESpecs()...)
	cols, err := bgp.BuildCollectors(g, pt, specs, rngCols)
	if err != nil {
		return nil, fmt.Errorf("expt: build collectors: %w", err)
	}
	nRV := len(bgp.RouteViewsSpecs())
	dt, err := mobility.GenerateDeviceTrace(g, pt, cfg.Device, rngDev)
	if err != nil {
		return nil, fmt.Errorf("expt: device trace: %w", err)
	}
	dep, err := cdn.Generate(g, pt, cfg.CDN, rngCDN)
	if err != nil {
		return nil, fmt.Errorf("expt: content deployment: %w", err)
	}
	return &World{
		Cfg:        cfg,
		Graph:      g,
		Prefixes:   pt,
		RouteViews: cols[:nRV],
		RIPE:       cols[nRV:],
		Devices:    dt,
		Deployment: dep,
	}, nil
}

// Timelines generates (once) and returns the content timelines for the
// configured measurement window: the popular sites first, then the
// unpopular ones, each class in site order. It is safe to call from
// concurrent drivers: the sync.Once guarantees the sweep is generated
// exactly once.
func (w *World) Timelines() []cdn.Timeline {
	w.timelinesOnce.Do(func() {
		rng := rand.New(rand.NewSource(w.Cfg.Seed + 5))
		tls := w.Deployment.TimelinesParallel(24*w.Cfg.ContentDays, rng, w.Cfg.Parallel)
		slices.SortStableFunc(tls, func(a, b cdn.Timeline) int { return cmp.Compare(a.Site.Class, b.Site.Class) })
		w.timelines = tls
		for w.nPopular < len(tls) && tls[w.nPopular].Site.Class == cdn.Popular {
			w.nPopular++
		}
	})
	return w.timelines
}

// TimelinesByClass splits the timelines into popular and unpopular sets,
// each in site order. Both alias Timelines' slice: callers must not write
// through them, and popular's capacity ends at its length, so an append to
// it copies.
//
//lint:zeroalloc once the timelines are generated
func (w *World) TimelinesByClass() (popular, unpopular []cdn.Timeline) {
	tls, n := w.Timelines(), w.nPopular
	return tls[:n:n], tls[n:]
}
