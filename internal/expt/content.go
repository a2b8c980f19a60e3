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
	PerDay   stats.Summary
	CDF      []stats.Point
	Names    int
	Days     int
	BoundMax float64 // the hourly-sampling ceiling (24/day)
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
		PerDay:   stats.Summarize(perDay),
		CDF:      stats.NewCDF(perDay).Points(40),
		Names:    len(popular),
		Days:     days,
		BoundMax: 24,
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

// fusedPerCollector replays tls against every RouteViews collector's FIB
// and returns one fused total per collector. The work fans out over
// timeline shards, each walked once for all collectors, whose FIBs resolve
// an address as one set (one prefix walk for all that share an index);
// shards are oversubscribed (par.ShardsFor) because timeline weight is
// heavy-tailed. The tasks share nothing but the read-only set. Per-shard
// partials are integer totals summed in shard order (union state is per
// timeline, never crossing a shard boundary), so the totals are
// bit-identical at every parallelism degree.
func fusedPerCollector(w *World, tls []cdn.Timeline) []core.StrategyStats {
	fibs := make([]*bgp.FIB, len(w.RouteViews))
	for ci, c := range w.RouteViews {
		fibs[ci] = c.FIB
	}
	set := bgp.NewFIBSet(fibs)
	shards := par.ShardsFor(len(tls), w.Cfg.Parallel)
	partial := make([][]core.StrategyStats, len(shards))
	par.ForEach(w.Cfg.Parallel, len(shards), func(si int) {
		partial[si] = core.ContentUpdateStatsPerRouter(set, tls[shards[si][0]:shards[si][1]])
	})
	tot := make([]core.StrategyStats, len(fibs))
	for ci := range tot {
		for _, p := range partial {
			tot[ci].Add(p[ci])
		}
		w.Cfg.Obs.collectorDone()
	}
	return tot
}

// RunFig11bc computes Figure 11(b) or 11(c) depending on class; both
// strategies come out of fusedPerCollector's single walk.
func RunFig11bc(w *World, class cdn.Class) Fig11bcResult {
	popular, unpopular := w.TimelinesByClass()
	tls := popular
	if class == cdn.Unpopular {
		tls = unpopular
	}
	cols := w.RouteViews
	tots := fusedPerCollector(w, tls)
	res := Fig11bcResult{Class: class}
	res.BestPort = make([]RouterRate, len(cols))
	res.Flooding = make([]RouterRate, len(cols))
	if len(tots) > 0 {
		res.Events = tots[0].BestPort.Events // every collector rode the same walks
	}
	for ci, c := range cols {
		rr := RouterRate{Name: c.Name, NextHopDegree: c.FIB.NextHopDegree(), Sessions: len(c.Sessions)}
		rr.Rate = tots[ci].BestPort.Rate()
		res.BestPort[ci] = rr
		rr.Rate = tots[ci].Flooding.Rate()
		res.Flooding[ci] = rr
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
// names per collector, evaluated on the hour-0 snapshot of the sweep. It
// fans out over the collectors, which share the read-only FIBs and name
// sets; results land in collector order.
func RunFig12(w *World) Fig12Result {
	popular, unpopular := w.TimelinesByClass()
	popSets := cdn.CompleteTable(popular, 0)
	unpopSets := cdn.CompleteTable(unpopular, 0)
	res := Fig12Result{Names: len(popSets)}
	aggs := par.Map(w.Cfg.Parallel, len(w.RouteViews), func(i int) float64 {
		return core.AggregateabilityBestPort(w.RouteViews[i].FIB, popSets)
	})
	for i, c := range w.RouteViews {
		res.Routers = append(res.Routers, struct {
			Name             string
			Aggregateability float64
		}{c.Name, aggs[i]})
	}
	if len(w.RouteViews) > 0 {
		res.UnpopularAgg = core.AggregateabilityBestPort(w.RouteViews[0].FIB, unpopSets)
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
// fusedPerCollector yields all three strategy totals per collector at once,
// so finding the argmax triggers no further replay.
func RunStrategyAblation(w *World) AblationResult {
	popular, _ := w.TimelinesByClass()
	cols := w.RouteViews
	sets := fusedPerCollector(w, popular)
	best := -1
	for i := range sets {
		if best < 0 || sets[i].Flooding.Rate() > sets[best].Flooding.Rate() {
			best = i
		}
	}
	if best < 0 {
		return AblationResult{}
	}
	s := sets[best]
	return AblationResult{
		Collector: cols[best].Name,
		Events:    s.Flooding.Events,
		BestPort:  s.BestPort.Rate(),
		Flooding:  s.Flooding.Rate(),
		Union:     s.Union.Rate(),
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
