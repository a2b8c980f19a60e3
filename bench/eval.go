package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"locind/internal/cdn"
	"locind/internal/core"
	"locind/internal/expt"
	"locind/internal/netaddr"
	"locind/internal/obs"
)

// evalAll measures one pass of every driver `locind -quick all` runs, over
// worlds built off the clock: netaddr trie, core.Memo, cdn Timeline.Walk, the
// fused evaluator and par do all the work, world synthesis none (it is this
// workload's setup_s).
var evalAll = workload{
	name:   "eval-all",
	why:    "evaluation only: trie, core.Memo, Timeline.Walk, the fused evaluator and par do all the work over five fixed worlds built off the clock",
	setups: 1,
	// No warm-up ops: each world's Parallel = 1 reference pass warms it, off
	// the clock.
	ops:    evalWorlds * evalPassesPerWorld,
	size:   fullSize,
	new:    func(seed int64, sz sizes) instance { return &evalRun{seed: seed, size: sz} },
	layers: evalLayers,
}

// A run makes evalPassesPerWorld measured passes over each of evalWorlds
// worlds. The worlds are the same in every run, whatever its seed: eight
// worlds measured one by one took 1.08–1.74 s a pass and allocated
// 340–482 MB (popular-content events alone range from 30k to 40k), so runs
// over worlds of their own would differ by their worlds, not by the
// evaluator, and five worlds are too few to average that out. World 0 is the
// world `locind -quick` itself evaluates. The run's seed sets the order the
// worlds are visited in and seeds the drivers that take no world. The next
// world is built with the clocks stopped — each build is one more setup_s
// sample — and the previous one is dropped first: six live worlds make a
// 700 MiB heap whose marking, not the evaluator, then sets the pace.
const (
	evalWorlds         = 5
	evalPassesPerWorld = 2
)

// evalWorldConfig is the configuration of world k of the fixed set. The step
// keeps the sub-streams BuildWorld derives (Seed+1 … Seed+8, Seed+100+k) of
// different worlds apart.
func evalWorldConfig(sz sizes, k int) expt.Config {
	cfg := sz.world()
	cfg.Seed += int64(k) * 1000
	return cfg
}

type digest [sha256.Size]byte

// The drivers of one pass, in the order locind runs them; the names are the
// expt.*_ms layer names.
var evalDrivers = []string{
	"table1", "netsim", "fig6", "fig7", "fig8", "sensitivity", "fig9", "envelope", "fig10",
	"fig11a", "fig11b", "fig11c", "fig12", "ablation", "session_sweep", "intradomain",
}

// evalPass runs every driver `locind -quick all` runs over w, in locind's
// order, with a span around each, and returns a digest of every Render().
// seed goes to the drivers that take a seed and no world.
func evalPass(w *expt.World, seed int64, rec *recorder, parent, op int) (digest, error) {
	h := sha256.New()
	var fig8 expt.Fig8Result
	var fig9 expt.Fig9Result
	for _, name := range evalDrivers {
		id := rec.begin("expt."+name, parent, op)
		var out string
		var err error
		switch name {
		case "table1":
			out = expt.RunTable1(63, 100, 500, seed).Render()
		case "netsim":
			// locind's netsim phase is three drivers.
			var a expt.NetsimResult
			var b expt.TrafficResult
			var c expt.CompactResult
			if a, err = expt.RunNetsim(seed); err != nil {
				break
			}
			if b, err = expt.RunContentTraffic(seed); err != nil {
				break
			}
			if c, err = expt.RunCompact(seed); err != nil {
				break
			}
			out = a.Render() + b.Render() + c.Render()
		case "fig6":
			out = expt.RunFig6(w).Render()
		case "fig7":
			out = expt.RunFig7(w).Render()
		case "fig8":
			fig8 = expt.RunFig8(w)
			out = fig8.Render()
		case "sensitivity":
			var r expt.SensitivityResult
			if r, err = expt.RunSensitivity(w); err == nil {
				out = r.Render()
			}
		case "fig9":
			fig9 = expt.RunFig9(w)
			out = fig9.Render()
		case "envelope":
			out = expt.RunEnvelope(w, fig8, fig9).Render()
		case "fig10":
			out = expt.RunFig10(w).Render()
		case "fig11a":
			out = expt.RunFig11a(w).Render()
		case "fig11b":
			out = expt.RunFig11bc(w, cdn.Popular).Render()
		case "fig11c":
			out = expt.RunFig11bc(w, cdn.Unpopular).Render()
		case "fig12":
			out = expt.RunFig12(w).Render()
		case "ablation":
			out = expt.RunStrategyAblation(w).Render()
		case "session_sweep":
			var r expt.SessionSweepResult
			if r, err = expt.RunSessionSweep(w, []int{2, 4, 8, 16, 24, 36}); err == nil {
				out = r.Render()
			}
		case "intradomain":
			var r expt.IntradomainResult
			if r, err = expt.RunIntradomain(seed); err == nil {
				out = r.Render()
			}
		}
		rec.end(id)
		if err != nil {
			return digest{}, fmt.Errorf("expt.%s: %w", name, err)
		}
		if out == "" {
			return digest{}, fmt.Errorf("expt.%s rendered nothing", name)
		}
		h.Write([]byte(out)) //lint:allow errflow hash writes cannot fail
	}
	var d digest
	copy(d[:], h.Sum(nil))
	return d, nil
}

// buildEvalWorld builds world k of the fixed set and generates its
// timelines, which is everything a pass needs.
func buildEvalWorld(sz sizes, k int) (*expt.World, error) {
	w, err := expt.BuildWorld(evalWorldConfig(sz, k))
	if err != nil {
		return nil, err
	}
	w.Timelines()
	return w, nil
}

type evalRun struct {
	seed   int64
	size   sizes
	order  []int // seeded permutation of the fixed worlds
	world  *expt.World
	built  int    // worlds built so far
	digest digest // what the Parallel = 1 reference pass over the current world rendered
}

// nextWorld replaces the current world with the next one of the run.
func (r *evalRun) nextWorld() error {
	if r.order == nil {
		r.order = rand.New(rand.NewSource(r.seed)).Perm(evalWorlds)
	}
	r.world = nil // let the old world go before the new one is built
	w, err := buildEvalWorld(r.size, r.order[r.built%evalWorlds])
	if err != nil {
		return err
	}
	r.world, r.built = w, r.built+1
	return nil
}

func (r *evalRun) setup(context.Context) error { return r.nextWorld() }

// pass evaluates the current world at the given parallelism.
func (r *evalRun) pass(parallel int, rec *recorder, op int) (digest, error) {
	r.world.Cfg.Parallel = parallel
	root := rec.begin("eval-all", -1, op)
	d, err := evalPass(r.world, r.seed, rec, root, op)
	rec.end(root)
	return d, err
}

// reference renders the current world sequentially. Every measured pass over
// that world is held to this digest; the pass also serves as the world's
// warm-up, so it runs with the clocks stopped.
func (r *evalRun) reference() error {
	d, err := r.pass(1, nil, -1)
	if err != nil {
		return fmt.Errorf("Parallel = 1 reference pass over world %d: %w", r.world.Cfg.Seed, err)
	}
	r.digest = d
	return nil
}

func (r *evalRun) run(_ context.Context, m *meter, rec *recorder) error {
	m.begin()
	for i := 0; ; i++ {
		if i%evalPassesPerWorld == 0 {
			if i > 0 {
				if err := m.resetup(r.nextWorld); err != nil {
					return err
				}
			}
			if err := m.offTheClock(r.reference); err != nil {
				return err
			}
		}
		t := time.Now()
		d, err := r.pass(0, rec, i)
		if err == nil && d != r.digest {
			err = fmt.Errorf("eval-all: pass %d rendered %x, the Parallel = 1 pass over world %d rendered %x", i, d[:6], r.world.Cfg.Seed, r.digest[:6])
		}
		if m.observe(time.Since(t), err) {
			return nil
		}
	}
}

// check has nothing left to do: run fails the op whose digest differs.
func (r *evalRun) check(context.Context) error { return nil }

func (r *evalRun) close() {}

// evalLayers is the layer budget of eval-all. Driver times come from the
// traced run's spans. The layers below the drivers — memo, trie, walk,
// fused evaluator, par — are only reachable inside them, so each one's
// public function is timed in isolation on the same world's inputs.
func evalLayers(_ context.Context, lc *layerCtx) error {
	total, _ := layerTimes(lc.spans)
	for _, name := range evalDrivers {
		lc.out["expt."+name+"_ms"] = metric{median(total["expt."+name]), "ms"}
	}

	w, err := expt.BuildWorld(evalWorldConfig(lc.size, 0))
	if err != nil {
		return err
	}
	t := time.Now()
	rng := rand.New(rand.NewSource(w.Cfg.Seed + 5)) // World.Timelines' stream
	w.Deployment.TimelinesParallel(24*w.Cfg.ContentDays, rng, 0)
	lc.out["cdn.timelines_ms"] = metric{float64(time.Since(t)) / 1e6, "ms"}
	popular, _ := w.TimelinesByClass()
	events := 0
	var addrs []netaddr.Addr
	for i := range popular {
		events += popular[i].EventCount()
		addrs = append(addrs, popular[i].Initial...)
	}
	if events == 0 || len(addrs) == 0 {
		return fmt.Errorf("eval layers: world %d has no popular content", w.Cfg.Seed)
	}

	// Trie and memo on the addresses the evaluator resolves, against the
	// first collector's FIB. The memo is warmed first: the hit path is
	// what 95 % of evaluator lookups take.
	fib := w.RouteViews[0].FIB
	memo := core.NewMemo(fib)
	for _, a := range addrs {
		memo.Port(a)
	}
	lc.out["netaddr.trie_lookup_ns"] = metric{nsPerCall(len(addrs), func() {
		for _, a := range addrs {
			fib.Port(a)
		}
	}), "ns"}
	lc.out["core.memo_port_ns"] = metric{nsPerCall(len(addrs), func() {
		for _, a := range addrs {
			memo.Port(a)
		}
	}), "ns"}
	lc.out["cdn.walk_ns_per_event"] = metric{nsPerCall(events, func() {
		for i := range popular {
			popular[i].Walk(func(cdn.Event, []netaddr.Addr, []netaddr.Addr) {})
		}
	}), "ns"}
	var fused core.StrategyStats
	lc.out["core.fused_ns_per_event"] = metric{nsPerCall(events, func() {
		fused = core.ContentUpdateStatsAllFused(memo, popular)
	}), "ns"}
	if fused.BestPort.Events != events {
		return fmt.Errorf("eval layers: fused evaluator saw %d events, timelines hold %d", fused.BestPort.Events, events)
	}

	// Whole passes: sequential, parallel, and sequential with obs attached
	// (sequential, so that no racing first lookups blur the memo counts).
	timedPass := func(parallel int, reg *obs.Registry) (wall, cpu float64, err error) {
		w.Cfg.Parallel = parallel
		w.Cfg.Obs = nil
		if reg != nil {
			w.Cfg.Obs = expt.NewMetrics(reg)
		}
		c0, t0 := cpuTime(), time.Now()
		_, err = evalPass(w, lc.seed, nil, -1, -1)
		return time.Since(t0).Seconds(), (cpuTime() - c0).Seconds(), err
	}
	seqWall, seqCPU, err := timedPass(1, nil)
	if err != nil {
		return err
	}
	parWall, parCPU, err := timedPass(0, nil)
	if err != nil {
		return err
	}
	obsWall, _, err := timedPass(1, obs.NewRegistry())
	if err != nil {
		return err
	}
	lc.out["par.speedup_x"] = metric{seqWall / parWall, "x"}
	lc.out["par.cpu_overhead_pct"] = metric{100 * (parCPU/seqCPU - 1), "%"}
	lc.out["obs.eval_overhead_pct"] = metric{100 * (obsWall/seqWall - 1), "%"}
	hits := float64(w.Cfg.Obs.Memo.Hits.Value())
	misses := float64(w.Cfg.Obs.Memo.Misses.Value())
	if hits+misses == 0 {
		return fmt.Errorf("eval layers: the observed pass counted no memo lookups")
	}
	lc.out["core.memo_hit_rate"] = metric{hits / (hits + misses), "ratio"}
	lc.out["core.memo_lookups_per_pass"] = metric{hits + misses, "count"}
	return nil
}
