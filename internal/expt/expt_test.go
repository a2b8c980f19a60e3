package expt

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/mobility"
)

var (
	worldOnce sync.Once
	world     *World
	worldErr  error
)

// quickWorld builds one shared QuickConfig world for all tests in the
// package (building it is the expensive part).
func quickWorld(t *testing.T) *World {
	t.Helper()
	worldOnce.Do(func() {
		world, worldErr = BuildWorld(QuickConfig())
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return world
}

// runTable runs every entry of "all" in one fresh session over w, as
// `locind -quick all` does, and returns each entry's output by name plus
// every series in table order.
func runTable(t *testing.T, w *World) (map[string]Output, []CSV) {
	t.Helper()
	sel, err := Select([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	s := &Session{Cfg: w.Cfg, Quick: true, World: w}
	outs := map[string]Output{}
	var series []CSV
	for _, e := range sel {
		o, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		outs[e.Name] = o
		series = append(series, o.Series...)
	}
	return outs, series
}

// Select keeps table order whatever the argument order, names each entry
// once, leaves the opt-in entries out of "all", and names the valid
// experiments when it refuses one.
func TestSelect(t *testing.T) {
	names := func(args ...string) string {
		sel, err := Select(args)
		if err != nil {
			t.Fatal(err)
		}
		var ns []string
		for _, e := range sel {
			ns = append(ns, e.Name)
		}
		return strings.Join(ns, " ")
	}
	if got := names("fig9", "ENVELOPE", "fig8", "fig9"); got != "fig8 envelope fig9" {
		t.Errorf("selection = %q", got)
	}
	if got := names("gns-cluster", "all"); !strings.HasPrefix(got, "table1 netsim gns-cluster fig6") {
		t.Errorf("gns-cluster plus all = %q", got)
	}
	all := names("all")
	if strings.Contains(all, "gns-cluster") || !strings.HasSuffix(all, "fig12 ablate") {
		t.Errorf("all = %q", all)
	}
	_, err := Select([]string{"fig8", "fig99"})
	if err == nil || !strings.Contains(err.Error(), `"fig99"`) || !strings.Contains(err.Error(), "sensitivity envelope fig9") {
		t.Fatalf("unknown experiment error = %v", err)
	}
}

// An entry reads the content timelines iff it says so: locind generates
// them in a phase of their own before the first entry that does, so an
// entry that read them unannounced would carry their cost in its own row,
// and one that announced them needlessly would make a device-only run pay
// for them. Each entry runs on a fresh world, whose timelines nothing has
// asked for yet.
func TestTimelinesFlagMatchesWhatEntriesRead(t *testing.T) {
	for _, e := range Experiments {
		if !e.World {
			if e.Timelines {
				t.Errorf("%s reads timelines but no world", e.Name)
			}
			continue
		}
		w, err := BuildWorld(QuickConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(&Session{Cfg: w.Cfg, Quick: true, World: w}); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if read := w.timelines != nil; read != e.Timelines {
			t.Errorf("%s: Timelines is %v, but running it generated timelines: %v", e.Name, e.Timelines, read)
		}
	}
}

func TestBuildWorld(t *testing.T) {
	w := quickWorld(t)
	if len(w.RouteViews) != 12 || len(w.RIPE) != 13 {
		t.Fatalf("collector counts: %d RouteViews, %d RIPE", len(w.RouteViews), len(w.RIPE))
	}
	if len(w.Devices.Users) != w.Cfg.Device.Users {
		t.Fatalf("users = %d", len(w.Devices.Users))
	}
	if len(w.Deployment.Sites) == 0 {
		t.Fatal("no content sites")
	}
	// Timelines are generated lazily and cached.
	tl1 := w.Timelines()
	tl2 := w.Timelines()
	if &tl1[0] != &tl2[0] {
		t.Fatal("timelines not cached")
	}
	pop, unpop := w.TimelinesByClass()
	if len(pop) == 0 || len(unpop) == 0 {
		t.Fatal("empty class split")
	}
	if len(pop)+len(unpop) != len(tl1) {
		t.Fatal("class split loses timelines")
	}
}

func TestTable1Experiment(t *testing.T) {
	res := RunTable1(63, 30, 200, 1)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Simulation must land near the exact enumeration.
		d := row.SimNB.UpdateCost - row.ExactNB.UpdateCost
		if d < 0 {
			d = -d
		}
		if d > 0.1*row.ExactNB.UpdateCost+0.02 {
			t.Errorf("%s: sim %v vs exact %v", row.Topology, row.SimNB.UpdateCost, row.ExactNB.UpdateCost)
		}
	}
	out := res.Render()
	for _, want := range []string{"chain", "clique", "binary-tree", "star", "transit-only"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig6AndFig7(t *testing.T) {
	w := quickWorld(t)
	f6 := RunFig6(w)
	if f6.ASes.P50 < 1.5 || f6.ASes.P50 > 3.5 {
		t.Errorf("fig6 AS median = %v", f6.ASes.P50)
	}
	if f6.IPs.P50 < f6.ASes.P50 {
		t.Error("fig6: distinct IPs must dominate distinct ASes")
	}
	if f6.TailOver10 <= 0.05 {
		t.Errorf("fig6 heavy tail missing: %v", f6.TailOver10)
	}
	if len(f6.IPCDF) == 0 || !strings.Contains(f6.Render(), "Figure 6") {
		t.Error("fig6 render broken")
	}

	f7 := RunFig7(w)
	if f7.IPs.P50 < f7.ASes.P50 {
		t.Error("fig7: IP transitions must dominate AS transitions")
	}
	if !strings.Contains(f7.Render(), "Figure 7") {
		t.Error("fig7 render broken")
	}
}

func TestFig8Shape(t *testing.T) {
	w := quickWorld(t)
	f8 := RunFig8(w)
	if len(f8.Routers) != 12 {
		t.Fatalf("routers = %d", len(f8.Routers))
	}
	byName := map[string]RouterRate{}
	for _, r := range f8.Routers {
		byName[r.Name] = r
		if r.Rate < 0 || r.Rate > 0.5 {
			t.Errorf("%s rate %v out of plausible band", r.Name, r.Rate)
		}
	}
	// The paper's headline facts: the customer-feed collectors are barely
	// impacted; some router is impacted by a noticeable fraction of events.
	if byName["Mauritius"].Rate > 0.005 || byName["Tokyo"].Rate > 0.005 {
		t.Errorf("distant collectors should see ~no updates: %v %v",
			byName["Mauritius"].Rate, byName["Tokyo"].Rate)
	}
	if f8.Max() < 0.02 {
		t.Errorf("max rate %v implausibly low", f8.Max())
	}
	if !strings.Contains(f8.Render(), "Figure 8") {
		t.Error("fig8 render broken")
	}
}

func TestSensitivity(t *testing.T) {
	w := quickWorld(t)
	res, err := RunSensitivity(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerDayStdDev) != 12 {
		t.Fatalf("per-day std devs = %d", len(res.PerDayStdDev))
	}
	// Day-to-day stability: generous bound at quick scale (the paper's
	// full-scale bound is 0.005).
	if res.MaxStdDev > 0.08 {
		t.Errorf("per-day std dev %v too high", res.MaxStdDev)
	}
	if res.RIPEMax <= 0 {
		t.Error("RIPE set shows no updates at all")
	}
	// The two workloads must correlate strongly (paper: 0.88).
	if res.Correlation < 0.6 {
		t.Errorf("IMAP correlation = %v, want high", res.Correlation)
	}
	if !strings.Contains(res.Render(), "sensitivity") {
		t.Error("render broken")
	}
	t.Logf("sensitivity: maxSD=%.4f ripe(med=%.3f,max=%.3f) corr=%.2f",
		res.MaxStdDev, res.RIPEMedian, res.RIPEMax, res.Correlation)
}

func TestFig9AndFig10(t *testing.T) {
	w := quickWorld(t)
	f9 := RunFig9(w)
	if f9.AS.P50 < f9.IP.P50-1e-9 {
		t.Error("dominant-AS dwell must dominate dominant-IP dwell")
	}
	if f9.AS.P50 < 0.5 {
		t.Errorf("dominant AS dwell median = %v", f9.AS.P50)
	}
	if !strings.Contains(f9.Render(), "Figure 9") {
		t.Error("fig9 render broken")
	}

	f10 := RunFig10(w)
	// Coverage must be partial, like iPlane's 5%.
	if f10.Coverage <= 0 || f10.Coverage > 0.6 {
		t.Errorf("iplane coverage = %v", f10.Coverage)
	}
	if f10.Latency.N > 0 && (f10.Latency.P50 < 5 || f10.Latency.P50 > 400) {
		t.Errorf("latency median = %v ms", f10.Latency.P50)
	}
	// The AS-hop lower bound: the median mobile user wanders >= 2 AS hops
	// from home (the paper's finding 2).
	if f10.HopsLower.P50 < 2 {
		t.Errorf("AS-hop lower bound median = %v, want >= 2", f10.HopsLower.P50)
	}
	if !strings.Contains(f10.Render(), "Figure 10") {
		t.Error("fig10 render broken")
	}
	t.Logf("fig10: coverage=%.3f latency=%s hops=%s", f10.Coverage, f10.Latency, f10.HopsLower)
}

func TestFig11Content(t *testing.T) {
	w := quickWorld(t)
	a := RunFig11a(w)
	if a.PerDay.P50 < 0.3 || a.PerDay.P50 > 6 {
		t.Errorf("fig11a median = %v", a.PerDay.P50)
	}
	if a.PerDay.Max > 24 {
		t.Errorf("fig11a max = %v exceeds hourly bound", a.PerDay.Max)
	}
	if !strings.Contains(a.Render(), "11(a)") {
		t.Error("render broken")
	}

	b := RunFig11bc(w, cdn.Popular)
	c := RunFig11bc(w, cdn.Unpopular)
	// The paper's Figure 11(b)/(c) facts: flooding ≥ best-port at every
	// router; unpopular rates dramatically below popular rates.
	for i := range b.BestPort {
		if b.BestPort[i].Rate > b.Flooding[i].Rate+1e-9 {
			t.Errorf("%s: best-port %v above flooding %v", b.BestPort[i].Name,
				b.BestPort[i].Rate, b.Flooding[i].Rate)
		}
	}
	if maxRate(c.Flooding) > maxRate(b.Flooding)/2 {
		t.Errorf("unpopular flooding max %v not well below popular %v",
			maxRate(c.Flooding), maxRate(b.Flooding))
	}
	if maxRate(b.BestPort) > maxRate(b.Flooding) {
		t.Error("best-port max exceeds flooding max")
	}
	if !strings.Contains(b.Render(), "11(b)") || !strings.Contains(c.Render(), "11(c)") {
		t.Error("render broken")
	}
	t.Logf("fig11b: flooding max=%.3f med=%.3f; best max=%.3f med=%.4f",
		maxRate(b.Flooding), medianRate(b.Flooding), maxRate(b.BestPort), medianRate(b.BestPort))
	t.Logf("fig11c: flooding max=%.4f; best max=%.4f", maxRate(c.Flooding), maxRate(c.BestPort))
}

func TestFig12(t *testing.T) {
	w := quickWorld(t)
	res := RunFig12(w)
	if len(res.Routers) != 12 {
		t.Fatalf("routers = %d", len(res.Routers))
	}
	for _, r := range res.Routers {
		if r.Aggregateability < 1 {
			t.Errorf("%s aggregateability %v < 1", r.Name, r.Aggregateability)
		}
	}
	// Popular names must aggregate far better than the long tail.
	best := 0.0
	for _, r := range res.Routers {
		if r.Aggregateability > best {
			best = r.Aggregateability
		}
	}
	if best < 1.5 {
		t.Errorf("popular aggregateability max %v too low", best)
	}
	if res.UnpopularAgg > best/1.2 {
		t.Errorf("unpopular aggregateability %v not well below popular %v", res.UnpopularAgg, best)
	}
	if !strings.Contains(res.Render(), "Figure 12") {
		t.Error("render broken")
	}
	t.Logf("fig12: popular max=%.2f unpopular=%.2f", best, res.UnpopularAgg)
}

func TestStrategyAblation(t *testing.T) {
	w := quickWorld(t)
	res := RunStrategyAblation(w)
	if res.Collector == "" {
		t.Fatal("no collector picked")
	}
	// §3.3.3: union flooding's update cost must be at most controlled
	// flooding's; best-port at most flooding.
	if res.Union > res.Flooding+1e-9 {
		t.Errorf("union %v above flooding %v", res.Union, res.Flooding)
	}
	if res.BestPort > res.Flooding+1e-9 {
		t.Errorf("best-port %v above flooding %v", res.BestPort, res.Flooding)
	}
	if !strings.Contains(res.Render(), "ablation") {
		t.Error("render broken")
	}
	t.Logf("ablation at %s: flooding=%.3f best=%.3f union=%.3f",
		res.Collector, res.Flooding, res.BestPort, res.Union)
}

func TestSessionSweep(t *testing.T) {
	w := quickWorld(t)
	res, err := RunSessionSweep(w, []int{2, 8, 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if !strings.Contains(res.Render(), "Ablation") {
		t.Error("render broken")
	}
	t.Logf("session sweep: %+v", res.Points)
}

func TestEnvelope(t *testing.T) {
	w := quickWorld(t)
	f8 := RunFig8(w)
	f9 := RunFig9(w)
	res := RunEnvelope(w, f8, f9)
	if res.DeviceMedianLoad <= 0 || res.DeviceMeanLoad < res.DeviceMedianLoad {
		t.Errorf("device loads: %v %v", res.DeviceMedianLoad, res.DeviceMeanLoad)
	}
	if res.ContentLoad < 100 || res.ContentLoad > 130 {
		t.Errorf("content load = %v", res.ContentLoad)
	}
	if !strings.Contains(res.Render(), "envelope") {
		t.Error("render broken")
	}
}

func TestRunNetsim(t *testing.T) {
	res, err := RunNetsim(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d, want 3 topologies x 3 architectures", len(res.Rows))
	}
	for _, row := range res.Rows {
		m := row.Metrics
		switch m.Arch {
		case "indirection", "name-resolution":
			if m.UpdatesPerMove != 1 {
				t.Errorf("%s/%s updates per move = %v", row.Topology, m.Arch, m.UpdatesPerMove)
			}
		case "name-based-routing":
			if m.AggUpdateCost <= 0 {
				t.Errorf("%s/%s agg cost = %v", row.Topology, m.Arch, m.AggUpdateCost)
			}
			if m.HandoffAttempts == 0 {
				t.Errorf("%s missing handoff probes", row.Topology)
			}
		}
		if m.DeliveredFrac < 0.99 {
			t.Errorf("%s/%s delivered %v", row.Topology, m.Arch, m.DeliveredFrac)
		}
	}
	if !strings.Contains(res.Render(), "netsim") {
		t.Error("render broken")
	}
}

func TestExportAll(t *testing.T) {
	w := quickWorld(t)
	dir := t.TempDir()
	_, series := runTable(t, w)
	if err := ExportAll(w, dir, series); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{
		"trace.csv", "rib_Oregon-1.txt", "fig6.csv", "fig7.csv", "fig8.csv",
		"fig9.csv", "fig10.csv", "fig11a.csv", "fig11b_flooding.csv",
		"fig11b_bestport.csv", "fig11c_flooding.csv", "fig11c_bestport.csv", "fig12.csv",
	} {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("missing export %s: %v", f, err)
		}
		if st.Size() == 0 {
			t.Fatalf("empty export %s", f)
		}
	}
	// Nothing else: the trace, one dump per RouteViews collector, and the
	// eleven series files of fig6 … fig12.
	if files, err := os.ReadDir(dir); err != nil || len(files) != 1+len(w.RouteViews)+11 {
		t.Fatalf("export holds %d files (%v), want %d", len(files), err, 1+len(w.RouteViews)+11)
	}
	// The exported trace must parse back and preserve the user population.
	raw, err := os.Open(filepath.Join(dir, "trace.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	back, err := mobility.ReadCSV(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Users) != len(w.Devices.Users) {
		t.Fatalf("trace round trip lost users: %d vs %d", len(back.Users), len(w.Devices.Users))
	}
	// The exported RIB must reload and derive an identical FIB sample.
	rf, err := os.Open(filepath.Join(dir, "rib_Oregon-1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	rib, err := bgp.ReadRIB(rf)
	if err != nil {
		t.Fatal(err)
	}
	fib := rib.DeriveFIB()
	orig := w.RouteViews[0].FIB
	for as := 0; as < w.Graph.N(); as += 37 {
		a := w.Prefixes.AddrIn(as, 3)
		p1, _ := orig.Port(a)
		p2, _ := fib.Port(a)
		if p1 != p2 {
			t.Fatalf("reloaded FIB diverges at AS%d", as)
		}
	}
}

// Two runs and exports of one world must be the same bytes, file for file.
// Map iteration changes between two ranges of the same map in one process,
// so a writer that ranges over one fails here without a second binary.
func TestExportAllIsByteStable(t *testing.T) {
	w := quickWorld(t)
	a, b := t.TempDir(), t.TempDir()
	for _, dir := range []string{a, b} {
		_, series := runTable(t, w)
		if err := ExportAll(w, dir, series); err != nil {
			t.Fatal(err)
		}
	}
	files, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	if other, err := os.ReadDir(b); err != nil || len(other) != len(files) {
		t.Fatalf("exports hold %d and %d files (%v)", len(files), len(other), err)
	}
	for _, f := range files {
		x, err := os.ReadFile(filepath.Join(a, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(b, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s differs between two exports of the same world", f.Name())
		}
	}
}

func TestRunContentTraffic(t *testing.T) {
	res, err := RunContentTraffic(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sends == 0 || res.Moves == 0 {
		t.Fatalf("empty run: %+v", res)
	}
	if res.FloodTrafficPerSend <= res.BestTrafficPerSend {
		t.Errorf("flooding traffic %v not above best %v", res.FloodTrafficPerSend, res.BestTrafficPerSend)
	}
	if res.FloodFirstVsBest < 0 {
		t.Errorf("flooding first copy slower than best: %v", res.FloodFirstVsBest)
	}
	if !strings.Contains(res.Render(), "fungibility") {
		t.Error("render broken")
	}
	t.Logf("traffic: best=%.2f flood=%.2f; updates: best=%.1f flood=%.1f",
		res.BestTrafficPerSend, res.FloodTrafficPerSend, res.BestUpdatesPerMove, res.FloodUpdatesPerMove)
}

func TestRunCompact(t *testing.T) {
	res, err := RunCompact(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, ev := range res.Points {
		if ev.MaxStretch > 3+1e-9 {
			t.Errorf("stretch bound broken at k=%d: %v", ev.Landmarks, ev.MaxStretch)
		}
	}
	// More landmarks -> landmark share of the table grows monotonically.
	if !strings.Contains(res.Render(), "compact-routing") {
		t.Error("render broken")
	}
	t.Logf("\n%s", res.Render())
}

func TestRunIntradomain(t *testing.T) {
	res, err := RunIntradomain(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		d := row.AggCost - row.AnalyticNB
		if d < 0 {
			d = -d
		}
		if d > 1e-9 {
			t.Errorf("%s: intradomain %v != analytic %v", row.Topology, row.AggCost, row.AnalyticNB)
		}
	}
	if len(res.HostRouteGrowth) != 4 {
		t.Fatalf("growth samples = %v", res.HostRouteGrowth)
	}
	// Host routes accumulate as hosts scatter from their birth subnets.
	if res.HostRouteGrowth[3] < res.HostRouteGrowth[0] {
		t.Errorf("host routes shrank: %v", res.HostRouteGrowth)
	}
	if !strings.Contains(res.Render(), "intradomain") {
		t.Error("render broken")
	}
	t.Logf("\n%s", res.Render())
}

// The whole world must be bit-for-bit reproducible from its seed: identical
// collectors, traces, and figure outputs.
func TestWorldDeterminism(t *testing.T) {
	cfg := QuickConfig()
	cfg.Device.Users = 30
	cfg.Device.Days = 3
	cfg.CDN.PopularDomains = 20
	cfg.CDN.UnpopularDomains = 20
	cfg.ContentDays = 3
	w1, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f1 := RunFig8(w1)
	f2 := RunFig8(w2)
	for i := range f1.Routers {
		if f1.Routers[i] != f2.Routers[i] {
			t.Fatalf("fig8 diverged at %s: %+v vs %+v", f1.Routers[i].Name, f1.Routers[i], f2.Routers[i])
		}
	}
	a1 := RunFig11a(w1)
	a2 := RunFig11a(w2)
	if a1.PerDay != a2.PerDay {
		t.Fatalf("fig11a diverged: %+v vs %+v", a1.PerDay, a2.PerDay)
	}
}
