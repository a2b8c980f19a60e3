package expt

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/core"
	"locind/internal/mobility"
)

// withParallel runs fn with the shared world pinned at the given worker
// count and restores the previous knob afterwards.
func withParallel(t *testing.T, w *World, parallel int, fn func()) {
	t.Helper()
	old := w.Cfg.Parallel
	w.Cfg.Parallel = parallel
	defer func() { w.Cfg.Parallel = old }()
	fn()
}

// Every experiment must render the same text and series at every worker
// count as sequentially — the engine's core guarantee. The drivers whose
// render rounds and who export no series are also compared field for field
// (the strategy ablation in TestContentGridMatchesPerFIBReference).
func TestParallelDriversMatchSequential(t *testing.T) {
	w := quickWorld(t)
	type exact struct {
		sweep SessionSweepResult
		sens  SensitivityResult
	}
	collect := func(parallel int) (outs map[string]Output, ex exact) {
		withParallel(t, w, parallel, func() {
			outs, _ = runTable(t, w)
			sweep, err := RunSessionSweep(w, []int{2, 8})
			if err != nil {
				t.Fatal(err)
			}
			ex.sweep = sweep
			sens, err := RunSensitivity(w)
			if err != nil {
				t.Fatal(err)
			}
			ex.sens = sens
		})
		return outs, ex
	}
	seqOuts, seq := collect(1)
	for _, n := range []int{4, 0} {
		parOuts, par := collect(n)
		for name, want := range seqOuts {
			if !reflect.DeepEqual(parOuts[name], want) {
				t.Errorf("parallel=%d: %s diverged from sequential:\n--- seq ---\n%s\n--- par ---\n%s",
					n, name, want.Text, parOuts[name].Text)
			}
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("parallel=%d: session sweep or sensitivity diverged: %+v vs %+v", n, seq, par)
		}
	}
}

// The Session's content grid is the one table behind fig11b, fig11c and
// ablate. At every worker count, each collector's entry must equal one
// unsharded fused pass straight off its own FIB (the fused evaluator itself
// is checked against the strategy-at-a-time oracle in internal/core) and
// count every event of the pool; the entries must render what the exported
// wrappers render; and the ablation must sit at the reference's flooding
// argmax, first on ties. A session that runs ablate alone fills the
// popular grid itself and must render the same bytes.
func TestContentGridMatchesPerFIBReference(t *testing.T) {
	w := quickWorld(t)
	popular, unpopular := w.TimelinesByClass()
	pools := []struct {
		class cdn.Class
		entry string
		tls   []cdn.Timeline
	}{{cdn.Popular, "fig11b", popular}, {cdn.Unpopular, "fig11c", unpopular}}
	ref := make([][]core.StrategyStats, len(pools))
	for _, p := range pools {
		for _, c := range w.RouteViews {
			ref[p.class] = append(ref[p.class], core.ContentUpdateStatsAllFused(c.FIB, p.tls))
		}
	}
	argmax := 0
	for i, st := range ref[cdn.Popular] {
		if st.Flooding.Rate() > ref[cdn.Popular][argmax].Flooding.Rate() {
			argmax = i
		}
	}
	for _, parallel := range []int{1, 4, 0} {
		withParallel(t, w, parallel, func() {
			s := &Session{Cfg: w.Cfg, Quick: true, World: w}
			outs, _ := runEntries(t, s, "fig11b", "fig11c", "ablate")
			for _, p := range pools {
				events := 0
				for i := range p.tls {
					events += p.tls[i].EventCount()
				}
				grid := s.grids[p.class]
				if len(grid) != len(w.RouteViews) {
					t.Fatalf("parallel=%d %s: grid has %d of %d collectors", parallel, p.class, len(grid), len(w.RouteViews))
				}
				for i, c := range w.RouteViews {
					if grid[i] != ref[p.class][i] {
						t.Errorf("parallel=%d %s %s: grid %+v != reference %+v", parallel, p.class, c.Name, grid[i], ref[p.class][i])
					}
					if st := grid[i]; st.BestPort.Events != events || st.Flooding.Events != events || st.Union.Events != events {
						t.Errorf("parallel=%d %s %s: events %+v, pool has %d", parallel, p.class, c.Name, st, events)
					}
				}
				r := RunFig11bc(w, p.class)
				want := Output{r.Render(), []CSV{
					bars(p.entry+"_flooding.csv", r.Flooding),
					bars(p.entry+"_bestport.csv", r.BestPort),
				}}
				if r.Events != events || !reflect.DeepEqual(outs[p.entry], want) {
					t.Errorf("parallel=%d: %s entry diverged from RunFig11bc (%d events, pool has %d):\n--- entry ---\n%s\n--- RunFig11bc ---\n%s",
						parallel, p.entry, r.Events, events, outs[p.entry].Text, want.Text)
				}
			}
			abl := RunStrategyAblation(w)
			if !strings.HasPrefix(outs["ablate"].Text, abl.Render()+"\n") {
				t.Errorf("parallel=%d: ablate entry does not open with RunStrategyAblation's render:\n%s", parallel, outs["ablate"].Text)
			}
			if abl.Collector != w.RouteViews[argmax].Name || abl.Events != ref[cdn.Popular][argmax].Flooding.Events {
				t.Errorf("parallel=%d: ablation at %s over %d events, reference argmax %s", parallel, abl.Collector, abl.Events, w.RouteViews[argmax].Name)
			}
			if parallel == 1 {
				alone, _ := runEntries(t, &Session{Cfg: w.Cfg, Quick: true, World: w}, "ablate")
				if !reflect.DeepEqual(alone["ablate"], outs["ablate"]) {
					t.Errorf("ablate alone diverged from ablate after fig11b:\n--- alone ---\n%s\n--- after fig11b ---\n%s", alone["ablate"].Text, outs["ablate"].Text)
				}
			}
		})
	}

	// Ties go to the first collector, on a grid built to tie.
	tied := &World{RouteViews: []*bgp.Collector{{Name: "a"}, {Name: "b"}, {Name: "c"}}}
	even := core.StrategyStats{Flooding: core.UpdateStats{Events: 4, Updates: 2}}
	low := core.StrategyStats{Flooding: core.UpdateStats{Events: 4, Updates: 1}}
	if got := ablationOf(tied, []core.StrategyStats{low, even, even}).Collector; got != "b" {
		t.Errorf("tied argmax at %q, want the first of the tie, %q", got, "b")
	}
}

// The sharded fused fan-out must match one unsharded fused pass over the
// same timelines straight off the FIB, collector by collector (the fused
// evaluator itself is checked against the strategy-at-a-time oracle in
// internal/core).
func TestFig11bcMatchesUnmemoizedReference(t *testing.T) {
	w := quickWorld(t)
	got := RunFig11bc(w, cdn.Unpopular)
	_, unpopular := w.TimelinesByClass()
	if len(got.BestPort) != len(w.RouteViews) {
		t.Fatalf("rates for %d of %d collectors", len(got.BestPort), len(w.RouteViews))
	}
	for i, c := range w.RouteViews {
		ref := core.ContentUpdateStatsAllFused(c.FIB, unpopular)
		bp, fl := ref.BestPort.Rate(), ref.Flooding.Rate()
		if got.BestPort[i].Rate != bp {
			t.Errorf("%s: best-port %v != reference %v", c.Name, got.BestPort[i].Rate, bp)
		}
		if got.Flooding[i].Rate != fl {
			t.Errorf("%s: flooding %v != reference %v", c.Name, got.Flooding[i].Rate, fl)
		}
	}
}

// TestTimelinesConcurrentOnce races many callers at the lazy sweep and
// checks exactly one generation happened (run under -race in CI).
func TestTimelinesConcurrentOnce(t *testing.T) {
	w := tinyWorld(t)
	const callers = 8
	got := make([]*cdn.Timeline, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tls := w.Timelines()
			got[g] = &tls[0]
		}(g)
	}
	wg.Wait()
	for g := 1; g < callers; g++ {
		if got[g] != got[0] {
			t.Fatal("concurrent Timelines() returned distinct generations")
		}
	}
}

// A degenerate workload must surface stats.Pearson's error from
// RunSensitivity instead of silently rendering "correlation 0.00".
func TestSensitivityPearsonErrorPropagates(t *testing.T) {
	w := quickWorld(t)
	degenerate := &World{
		Cfg:        w.Cfg,
		Graph:      w.Graph,
		Prefixes:   w.Prefixes,
		RouteViews: w.RouteViews,
		RIPE:       w.RIPE,
		Devices:    &mobility.DeviceTrace{}, // no users → all NomadLog rates 0
		Deployment: w.Deployment,
	}
	_, err := RunSensitivity(degenerate)
	if err == nil {
		t.Fatal("zero-variance NomadLog rates must error, not read as correlation 0.00")
	}
	if !strings.Contains(err.Error(), "correlation") {
		t.Fatalf("error does not identify the correlation stage: %v", err)
	}
}

// Every collector replays the same timelines, so the figure's event total
// must equal the workload's — not whatever the last collector iterated
// happened to report.
func TestFig11bcEventsInvariant(t *testing.T) {
	w := quickWorld(t)
	popular, unpopular := w.TimelinesByClass()
	for _, tc := range []struct {
		class cdn.Class
		tls   []cdn.Timeline
	}{{cdn.Popular, popular}, {cdn.Unpopular, unpopular}} {
		want := 0
		for i := range tc.tls {
			want += tc.tls[i].EventCount()
		}
		if got := RunFig11bc(w, tc.class).Events; got != want {
			t.Errorf("%s: Events = %d, workload has %d", tc.class, got, want)
		}
	}
}
