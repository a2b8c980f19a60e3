package expt

import (
	"fmt"
	"strings"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/core"
	"locind/internal/par"
	"locind/internal/stats"
)

// Fig11aResult is the content-mobility extent of Figure 11(a): the CDF over
// popular names of mobility events per day.
type Fig11aResult struct {
	PerDay stats.Summary
	CDF    []stats.Point
	Names  int
	Days   int
}

// RunFig11a computes Figure 11(a) over the popular timelines.
func RunFig11a(w *World) Fig11aResult {
	popular, _ := w.TimelinesByClass()
	days := w.Cfg.ContentDays
	var perDay []float64
	for i := range popular {
		perDay = append(perDay, float64(popular[i].EventCount())/float64(days))
	}
	return Fig11aResult{
		PerDay: stats.Summarize(perDay),
		CDF:    stats.NewCDF(perDay).Points(40),
		Names:  len(popular),
		Days:   days,
	}
}

// Render prints the Figure 11(a) readout.
func (r Fig11aResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11(a) — mobility events per day, %d popular names over %d days\n", r.Names, r.Days)
	fmt.Fprintf(&b, "  events/day: %s\n", r.PerDay)
	fmt.Fprintf(&b, "  paper: median 2, max bounded at 24 by hourly sampling — measured median %.1f, max %.1f\n",
		r.PerDay.P50, r.PerDay.Max)
	return b.String()
}

// Fig11bcResult is the per-collector content update rate of Figures 11(b)
// (popular) and 11(c) (unpopular), under both forwarding strategies.
type Fig11bcResult struct {
	Class    cdn.Class
	Events   int
	BestPort []RouterRate
	Flooding []RouterRate
}

// fusedPerCollector replays the class's pool at every RouteViews collector:
// the one grid of fused totals that Figures 11(b)/(c) and the ablation
// project. It fans out over timeline shards, each walked once for all
// collectors, whose FIBs resolve an address as one set (one prefix walk for
// all that share an index); shards are oversubscribed (par.ShardsFor)
// because timeline weight is heavy-tailed. The tasks share nothing but the
// read-only set. Per-shard partials are integer totals summed in shard order
// (union state is per timeline, never crossing a shard boundary), so the
// totals are bit-identical at every parallelism degree.
func fusedPerCollector(w *World, class cdn.Class) []core.StrategyStats {
	popular, unpopular := w.TimelinesByClass()
	tls := [...][]cdn.Timeline{cdn.Popular: popular, cdn.Unpopular: unpopular}[class]
	set := bgp.NewFIBSet(routeViewsFIBs(w))
	shards := par.ShardsFor(len(tls), w.Cfg.Parallel)
	partial := make([][]core.StrategyStats, len(shards))
	par.ForEach(w.Cfg.Parallel, len(shards), func(si int) {
		partial[si] = core.ContentUpdateStatsPerRouter(set, tls[shards[si][0]:shards[si][1]])
	})
	tot := make([]core.StrategyStats, len(w.RouteViews))
	for ci := range tot {
		for _, p := range partial {
			tot[ci].Add(p[ci])
		}
		w.Cfg.Obs.collectorDone()
	}
	return tot
}

// routeViewsFIBs lists the RouteViews collectors' FIBs in collector order.
func routeViewsFIBs(w *World) []*bgp.FIB {
	fibs := make([]*bgp.FIB, len(w.RouteViews))
	for ci, c := range w.RouteViews {
		fibs[ci] = c.FIB
	}
	return fibs
}

// RunFig11bc computes Figure 11(b) or 11(c), depending on class.
func RunFig11bc(w *World, class cdn.Class) Fig11bcResult {
	return fig11bcOf(w, class, fusedPerCollector(w, class))
}

// fig11bcOf projects the class's grid onto per-collector rates.
func fig11bcOf(w *World, class cdn.Class, grid []core.StrategyStats) Fig11bcResult {
	n := len(w.RouteViews)
	res := Fig11bcResult{Class: class, BestPort: make([]RouterRate, n), Flooding: make([]RouterRate, n)}
	for ci, c := range w.RouteViews {
		res.Events = grid[ci].BestPort.Events // every collector rode the same walks
		rr := routerRate(c, grid[ci].BestPort.Rate())
		res.BestPort[ci], res.Flooding[ci] = rr, rr
		res.Flooding[ci].Rate = grid[ci].Flooding.Rate()
	}
	w.Cfg.Obs.rows(len(res.BestPort) + len(res.Flooding))
	return res
}

func maxRate(rs []RouterRate) float64 {
	max := 0.0
	for _, r := range rs {
		if r.Rate > max {
			max = r.Rate
		}
	}
	return max
}

func medianRate(rs []RouterRate) float64 {
	xs := make([]float64, 0, len(rs))
	for _, r := range rs {
		xs = append(xs, r.Rate)
	}
	return stats.NewCDF(xs).Median()
}

// Render prints the Figure 11(b)/(c) bar chart.
func (r Fig11bcResult) Render() string {
	var b strings.Builder
	fig := "11(b)"
	paperNote := "paper: flooding ≤13%, best-port ≤6%"
	if r.Class == cdn.Unpopular {
		fig = "11(c)"
		paperNote = "paper: flooding ≤1%, best-port median 0.08%"
	}
	fmt.Fprintf(&b, "Figure %s — fraction of %s content mobility events inducing a router update (%d events)\n",
		fig, r.Class, r.Events)
	max := maxRate(r.Flooding)
	if bp := maxRate(r.BestPort); bp > max {
		max = bp
	}
	for i := range r.BestPort {
		fmt.Fprintf(&b, "  %-14s flooding %6.2f%% %s   best-port %6.2f%% %s\n",
			r.BestPort[i].Name,
			r.Flooding[i].Rate*100, stats.Bar(r.Flooding[i].Rate, max, 18),
			r.BestPort[i].Rate*100, stats.Bar(r.BestPort[i].Rate, max, 18))
	}
	fmt.Fprintf(&b, "  flooding max %.1f%% median %.1f%%; best-port max %.1f%% median %.2f%% (%s)\n",
		maxRate(r.Flooding)*100, medianRate(r.Flooding)*100,
		maxRate(r.BestPort)*100, medianRate(r.BestPort)*100, paperNote)
	return b.String()
}

// Fig12Result is the FIB aggregateability of Figure 12.
type Fig12Result struct {
	Routers []struct {
		Name             string
		Aggregateability float64
	}
	Names int
	// UnpopularAgg is the §7.3 observation that the long tail hardly
	// aggregates at all.
	UnpopularAgg float64
}

// RunFig12 computes Figure 12: best-port FIB aggregateability for popular
// names per collector, evaluated on the hour-0 snapshot of the sweep. The
// collectors' FIBs resolve each address as one set, so one pass over the
// names serves them all; the long tail is measured at the first collector.
func RunFig12(w *World) Fig12Result {
	popular, unpopular := w.TimelinesByClass()
	popSets := cdn.CompleteTable(popular, 0)
	unpopSets := cdn.CompleteTable(unpopular, 0)
	res := Fig12Result{Names: len(popSets)}
	fibs := routeViewsFIBs(w)
	aggs := core.AggregateabilityPerRouter(bgp.NewFIBSet(fibs), popSets)
	for i, c := range w.RouteViews {
		res.Routers = append(res.Routers, struct {
			Name             string
			Aggregateability float64
		}{c.Name, aggs[i]})
	}
	if len(fibs) > 0 {
		res.UnpopularAgg = core.AggregateabilityPerRouter(bgp.NewFIBSet(fibs[:1]), unpopSets)[0]
	}
	return res
}

// Render prints the Figure 12 bar chart.
func (r Fig12Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12 — FIB aggregateability of %d popular content names (best-port)\n", r.Names)
	max := 0.0
	for _, rr := range r.Routers {
		if rr.Aggregateability > max {
			max = rr.Aggregateability
		}
	}
	for _, rr := range r.Routers {
		fmt.Fprintf(&b, "  %-14s %6.2fx  %s\n", rr.Name, rr.Aggregateability, stats.Bar(rr.Aggregateability, max, 30))
	}
	fmt.Fprintf(&b, "  paper: 2x-16x across collectors; long-tail names aggregate at only %.2fx\n", r.UnpopularAgg)
	return b.String()
}

// AblationResult compares the three forwarding strategies of §3.3 on the
// same popular-content workload at one collector, demonstrating the
// fungibility of update cost against forwarding state the paper discusses
// in §3.3.3.
type AblationResult struct {
	Collector string
	Events    int
	BestPort  float64
	Flooding  float64
	Union     float64
}

// RunStrategyAblation evaluates all three strategies at the most-impacted
// RouteViews collector (highest controlled-flooding rate, first on ties).
func RunStrategyAblation(w *World) AblationResult {
	return ablationOf(w, fusedPerCollector(w, cdn.Popular))
}

// ablationOf projects the popular grid onto its flooding argmax; the grid
// holds all three strategies' totals, so this replays nothing.
func ablationOf(w *World, grid []core.StrategyStats) AblationResult {
	best := -1
	for i := range grid {
		if best < 0 || grid[i].Flooding.Rate() > grid[best].Flooding.Rate() {
			best = i
		}
	}
	if best < 0 {
		return AblationResult{}
	}
	return AblationResult{
		Collector: w.RouteViews[best].Name,
		Events:    grid[best].Flooding.Events,
		BestPort:  grid[best].BestPort.Rate(),
		Flooding:  grid[best].Flooding.Rate(),
		Union:     grid[best].Union.Rate(),
	}
}

// Render prints the ablation readout.
func (r AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§3.3.3 strategy ablation at %s (%d popular-content events)\n", r.Collector, r.Events)
	fmt.Fprintf(&b, "  controlled flooding : %6.2f%% of events update the router\n", r.Flooding*100)
	fmt.Fprintf(&b, "  best-port           : %6.2f%%\n", r.BestPort*100)
	fmt.Fprintf(&b, "  union-of-past-addrs : %6.2f%%  (update cost → 0 as the location set saturates)\n", r.Union*100)
	return b.String()
}
