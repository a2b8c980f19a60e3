package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/expt"
	"locind/internal/mobility"
)

// worldBuild measures expt.BuildWorld(QuickConfig()): asgraph, bgp, mobility
// and cdn.Generate do all the work and the evaluator none. It is the fixed
// cost of every locind run, and the only workload on which a change to the
// collector build can show.
var worldBuild = workload{
	name: "world-build",
	why:  "synthesis only: asgraph, bgp, mobility and cdn.Generate do all the work, the evaluator none",
	// Set-up is the process's first builds — cold heap, cold page cache of
	// the allocator — which is what a one-shot `locind` run pays.
	setups: 5,
	warmup: 2,
	ops:    88,
	size:   fullSize,
	new:    func(seed int64, sz sizes) instance { return &worldBuildRun{seed: seed, size: sz} },
	layers: worldLayers,
}

// worldConfig is the configuration of the i-th world of a run. Every world
// of a run gets its own seed: synthesis cost varies by some ±15 % from one
// seed's world to the next, so a run that built one world over and over
// would report that world's size, not the builder's speed; over the 88
// worlds of a run the differences average out. The multiplier keeps the
// sub-streams BuildWorld derives (Seed+1 … Seed+5, Seed+100+k) of different
// worlds apart.
func worldConfig(sz sizes, seed int64, i int) expt.Config {
	cfg := sz.world()
	cfg.Seed = (seed + int64(i)) * 1_000_003
	return cfg
}

// worldPrint is what two builds of one configuration must agree on.
type worldPrint struct {
	Prefixes     int
	FIBs         []int // per collector, RouteViews then RIPE
	DeviceEvents int
}

func fingerprint(w *expt.World) worldPrint {
	p := worldPrint{Prefixes: w.Prefixes.NumPrefixes(), DeviceEvents: len(w.Devices.MoveEvents())}
	for _, c := range w.RouteViews {
		p.FIBs = append(p.FIBs, c.FIB.Len())
	}
	for _, c := range w.RIPE {
		p.FIBs = append(p.FIBs, c.FIB.Len())
	}
	return p
}

// buildWorldByLayer calls the five constructors BuildWorld calls, in its
// order and with its RNG streams, with a span around each. It is both the
// traced form of a world-build op and the independent path the untraced
// run's output is checked against.
func buildWorldByLayer(cfg expt.Config, rec *recorder, parent, op int) (*expt.World, error) {
	rngGraph := rand.New(rand.NewSource(cfg.Seed + 1))
	rngCols := rand.New(rand.NewSource(cfg.Seed + 2))
	rngDev := rand.New(rand.NewSource(cfg.Seed + 3))
	rngCDN := rand.New(rand.NewSource(cfg.Seed + 4))

	id := rec.begin("asgraph.synthesize", parent, op)
	g, err := asgraph.Synthesize(cfg.AS, rngGraph)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("bgp.prefix_table", parent, op)
	pt, err := bgp.NewPrefixTable(g, cfg.MoreSpecifics)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	specs := append(append([]bgp.Spec{}, bgp.RouteViewsSpecs()...), bgp.RIPESpecs()...)
	id = rec.begin("bgp.build_collectors", parent, op)
	cols, err := bgp.BuildCollectors(g, pt, specs, rngCols)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("mobility.device_trace", parent, op)
	dt, err := mobility.GenerateDeviceTrace(g, pt, cfg.Device, rngDev)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	id = rec.begin("cdn.generate", parent, op)
	dep, err := cdn.Generate(g, pt, cfg.CDN, rngCDN)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	nRV := len(bgp.RouteViewsSpecs())
	return &expt.World{
		Cfg: cfg, Graph: g, Prefixes: pt,
		RouteViews: cols[:nRV], RIPE: cols[nRV:],
		Devices: dt, Deployment: dep,
	}, nil
}

type worldBuildRun struct {
	seed     int64
	size     sizes
	traced   bool
	built    int         // worlds built so far; the next world's index
	live     *expt.World // the most recent world, kept reachable for retained_heap_mb
	first    worldPrint  // fingerprint of the first measured op's world
	firstCfg expt.Config
}

func (r *worldBuildRun) build(rec *recorder, op int) error {
	cfg := worldConfig(r.size, r.seed, r.built)
	r.built++
	var err error
	if rec == nil {
		r.live, err = expt.BuildWorld(cfg)
		return err
	}
	root := rec.begin("world-build", -1, op)
	r.live, err = buildWorldByLayer(cfg, rec, root, op)
	rec.end(root)
	return err
}

func (r *worldBuildRun) setup(context.Context) error { return r.build(nil, -1) }

func (r *worldBuildRun) run(_ context.Context, m *meter, rec *recorder) error {
	r.traced = rec != nil
	m.loop(func(i int) error {
		err := r.build(rec, i)
		if i == m.warmup && err == nil {
			r.first, r.firstCfg = fingerprint(r.live), r.live.Cfg
		}
		return err
	})
	return nil
}

// check rebuilds the first measured world along the other path — the five
// constructors when the run used BuildWorld, BuildWorld when the run was
// traced — and requires the two to agree.
func (r *worldBuildRun) check(context.Context) error {
	if r.first.Prefixes == 0 || r.first.DeviceEvents == 0 || len(r.first.FIBs) == 0 {
		return fmt.Errorf("world-build: first measured world is empty: %+v", r.first)
	}
	other := func() (*expt.World, error) { return buildWorldByLayer(r.firstCfg, nil, -1, -1) }
	if r.traced {
		other = func() (*expt.World, error) { return expt.BuildWorld(r.firstCfg) }
	}
	ref, err := other()
	if err != nil {
		return err
	}
	if got := fingerprint(ref); !reflect.DeepEqual(got, r.first) {
		return fmt.Errorf("world-build: BuildWorld and the five constructors disagree: %+v vs %+v", r.first, got)
	}
	return nil
}

func (r *worldBuildRun) close() {}

// worldLayers is the layer budget of world-build: the five constructors'
// span times from the traced run against BuildWorld timed whole in the
// plain run, the difference reported as unaccounted.
func worldLayers(_ context.Context, lc *layerCtx) error {
	total, _ := layerTimes(lc.spans)
	sum := 0.0
	for _, name := range []string{"asgraph.synthesize", "bgp.prefix_table", "bgp.build_collectors", "mobility.device_trace", "cdn.generate"} {
		v := median(total[name])
		lc.out[name+"_ms"] = metric{v, "ms"}
		sum += v
	}
	whole := lc.plain.Info[mP50].Value
	lc.out["expt.world_unaccounted_pct"] = metric{100 * (whole - sum) / whole, "%"}
	return nil
}
