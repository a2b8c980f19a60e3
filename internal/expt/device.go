package expt

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/core"
	"locind/internal/iplane"
	"locind/internal/mobility"
	"locind/internal/par"
	"locind/internal/stats"
)

// Fig6Result is the Figure 6 series: the per-user distribution of the
// average number of distinct network locations visited per day, at IP,
// prefix, and AS granularity.
type Fig6Result struct {
	IPs      stats.Summary
	Prefixes stats.Summary
	ASes     stats.Summary
	// TailOver10 is the fraction of users averaging more than 10 distinct
	// IP addresses per day (the paper's "more than 20%" headline).
	TailOver10 float64

	IPCDF, PrefixCDF, ASCDF []stats.Point
}

// RunFig6 computes Figure 6 from the device trace.
func RunFig6(w *World) Fig6Result {
	avgs := w.Devices.PerUserDailyAverages()
	var ips, prefixes, ases []float64
	for _, a := range avgs {
		ips = append(ips, a.AvgDistinctIPs)
		prefixes = append(prefixes, a.AvgDistinctPrefixes)
		ases = append(ases, a.AvgDistinctASes)
	}
	c := stats.NewCDF(ips)
	return Fig6Result{
		IPs:        stats.Summarize(ips),
		Prefixes:   stats.Summarize(prefixes),
		ASes:       stats.Summarize(ases),
		TailOver10: 1 - c.At(10),
		IPCDF:      c.Points(40),
		PrefixCDF:  stats.NewCDF(prefixes).Points(40),
		ASCDF:      stats.NewCDF(ases).Points(40),
	}
}

// Render prints the Figure 6 readout.
func (r Fig6Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6 — distinct network locations per user per day (CDF across users)\n")
	fmt.Fprintf(&b, "  IP addresses : %s\n", r.IPs)
	fmt.Fprintf(&b, "  IP prefixes  : %s\n", r.Prefixes)
	fmt.Fprintf(&b, "  ASes         : %s\n", r.ASes)
	fmt.Fprintf(&b, "  users averaging >10 IPs/day: %.1f%%  (paper: >20%%)\n", r.TailOver10*100)
	fmt.Fprintf(&b, "  paper medians: IP 3, prefix 2, AS 2 — measured: IP %.0f, prefix %.0f, AS %.0f\n",
		r.IPs.P50, r.Prefixes.P50, r.ASes.P50)
	return b.String()
}

// Fig7Result is the Figure 7 series: transitions across network locations
// per day.
type Fig7Result struct {
	IPs      stats.Summary
	Prefixes stats.Summary
	ASes     stats.Summary

	IPCDF, PrefixCDF, ASCDF []stats.Point
}

// RunFig7 computes Figure 7 from the device trace.
func RunFig7(w *World) Fig7Result {
	avgs := w.Devices.PerUserDailyAverages()
	var ips, prefixes, ases []float64
	for _, a := range avgs {
		ips = append(ips, a.AvgIPTransitions)
		prefixes = append(prefixes, a.AvgPrefixTransitions)
		ases = append(ases, a.AvgASTransitions)
	}
	return Fig7Result{
		IPs:       stats.Summarize(ips),
		Prefixes:  stats.Summarize(prefixes),
		ASes:      stats.Summarize(ases),
		IPCDF:     stats.NewCDF(ips).Points(40),
		PrefixCDF: stats.NewCDF(prefixes).Points(40),
		ASCDF:     stats.NewCDF(ases).Points(40),
	}
}

// Render prints the Figure 7 readout.
func (r Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7 — transitions across network locations per user per day\n")
	fmt.Fprintf(&b, "  IP addresses : %s\n", r.IPs)
	fmt.Fprintf(&b, "  IP prefixes  : %s\n", r.Prefixes)
	fmt.Fprintf(&b, "  ASes         : %s\n", r.ASes)
	fmt.Fprintf(&b, "  paper: median ~1 AS & ~3 IP transitions; AS range 0.25-31.6 — measured AS range %.2f-%.1f\n",
		r.ASes.Min, r.ASes.Max)
	return b.String()
}

// RouterRate is one bar of Figures 8/11b/11c: a collector and its update
// rate (plus next-hop degree, the paper's explanatory variable).
type RouterRate struct {
	Name          string
	Rate          float64
	NextHopDegree int
	Sessions      int
}

// routerRate is collector c's bar at the given rate.
func routerRate(c *bgp.Collector, rate float64) RouterRate {
	return RouterRate{Name: c.Name, Rate: rate, NextHopDegree: c.FIB.NextHopDegree(), Sessions: len(c.Sessions)}
}

// Fig8Result is the per-collector device update rate of Figure 8.
type Fig8Result struct {
	Routers []RouterRate
	Events  int
}

// RunFig8 computes Figure 8 over the RouteViews collectors: one move table
// of the events, counted at one memoized collector per worker; results land
// in collector order regardless of scheduling.
func RunFig8(w *World) Fig8Result {
	events := w.Devices.MoveEvents()
	moves := core.NewMoveTable(events)
	res := Fig8Result{Events: len(events)}
	res.Routers = par.Map(w.Cfg.Parallel, len(w.RouteViews), func(i int) RouterRate {
		defer w.Cfg.Obs.collectorDone()
		c := w.RouteViews[i]
		return routerRate(c, moves.Stats(w.Cfg.memo(c.FIB))[0].Rate())
	})
	w.Cfg.Obs.rows(len(res.Routers))
	return res
}

// Max returns the largest per-router rate.
func (r Fig8Result) Max() float64 { return maxRate(r.Routers) }

// Median returns the median per-router rate.
func (r Fig8Result) Median() float64 { return medianRate(r.Routers) }

// Render prints the Figure 8 bar chart.
func (r Fig8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — fraction of device mobility events inducing a router update (%d events)\n", r.Events)
	max := r.Max()
	for _, rr := range r.Routers {
		fmt.Fprintf(&b, "  %-14s %6.2f%%  %s  (next-hop degree %d, %d sessions)\n",
			rr.Name, rr.Rate*100, stats.Bar(rr.Rate, max, 30), rr.NextHopDegree, rr.Sessions)
	}
	fmt.Fprintf(&b, "  max %.1f%% (paper: up to 14%%), median %.1f%% (paper: 3.15%%); Mauritius/Tokyo near zero as in the paper\n",
		r.Max()*100, r.Median()*100)
	return b.String()
}

// SensitivityResult covers the three §6.2.2 robustness checks: stability
// across measurement days, the RIPE collector set, and the IMAP-style proxy
// workload's correlation with the primary workload.
type SensitivityResult struct {
	// PerDayStdDev is, per RouteViews collector, the standard deviation of
	// its daily update rate (the paper: < 0.005 at every router across 20
	// days).
	PerDayStdDev map[string]float64
	MaxStdDev    float64

	RIPEMedian float64
	RIPEMax    float64

	IMAPEvents  int
	Correlation float64 // across all 25 collectors, NomadLog vs IMAP rates
}

// RunSensitivity computes the §6.2.2 sensitivity analysis in one fan-out over
// the 25 collectors, RouteViews first, sharing one move table whose groups
// are the NomadLog events day by day (the days' integer counts sum to the
// whole-trace measurement) and then the IMAP events; rows come back in
// collector order, so the readout is identical at every parallelism degree.
// A degenerate workload (zero-variance or mismatched rate vectors) is an
// error, never a fake "correlation 0.00".
func RunSensitivity(w *World) (SensitivityResult, error) {
	res := SensitivityResult{PerDayStdDev: map[string]float64{}}

	// The IMAP-style application-view workload over a larger user population.
	imapCfg := w.Cfg.Device
	imapCfg.Users = w.Cfg.IMAPUsers
	imapCfg.Days = w.Cfg.IMAPDays
	imapTrace, err := mobility.GenerateDeviceTrace(w.Graph, w.Prefixes, imapCfg, rand.New(rand.NewSource(w.Cfg.Seed+6)))
	if err != nil {
		return res, err
	}
	imapEvents := mobility.IMAPMoveEvents(imapTrace, 2.0, rand.New(rand.NewSource(w.Cfg.Seed+7)))
	res.IMAPEvents = len(imapEvents)

	byDay := map[int][]mobility.MoveEvent{}
	for _, e := range w.Devices.MoveEvents() {
		byDay[e.Day] = append(byDay[e.Day], e)
	}
	days := make([]int, 0, len(byDay))
	for d := range byDay {
		days = append(days, d)
	}
	sort.Ints(days)
	groups := make([][]mobility.MoveEvent, 0, len(days)+1)
	for _, d := range days {
		groups = append(groups, byDay[d])
	}
	moves := core.NewMoveTable(append(groups, imapEvents)...)

	all := append(append([]*bgp.Collector{}, w.RouteViews...), w.RIPE...)
	type row struct{ stdDev, nomad, imap float64 }
	rows := par.Map(w.Cfg.Parallel, len(all), func(i int) row {
		defer w.Cfg.Obs.collectorDone()
		perGroup := moves.Stats(w.Cfg.memo(all[i].FIB))
		var total core.UpdateStats
		rates := make([]float64, 0, len(days))
		for _, s := range perGroup[:len(days)] {
			rates = append(rates, s.Rate())
			total.Add(s)
		}
		return row{stats.StdDev(rates), total.Rate(), perGroup[len(days)].Rate()}
	})
	nomadRates, imapRates := make([]float64, len(rows)), make([]float64, len(rows))
	for i, r := range rows {
		nomadRates[i], imapRates[i] = r.nomad, r.imap
	}

	// (1) Day-to-day stability at each RouteViews collector.
	nRV := len(w.RouteViews)
	for i, r := range rows[:nRV] {
		res.PerDayStdDev[all[i].Name] = r.stdDev
		if r.stdDev > res.MaxStdDev {
			res.MaxStdDev = r.stdDev
		}
	}
	// (2) The RIPE collector set.
	ripeCDF := stats.NewCDF(nomadRates[nRV:])
	res.RIPEMedian, res.RIPEMax = ripeCDF.Median(), ripeCDF.Max()
	// (3) NomadLog against IMAP rates across all 25 collectors.
	corr, err := stats.Pearson(nomadRates, imapRates)
	if err != nil {
		return res, fmt.Errorf("expt: NomadLog/IMAP rate correlation: %w", err)
	}
	res.Correlation = corr
	return res, nil
}

// Render prints the sensitivity readout.
func (r SensitivityResult) Render() string {
	var b strings.Builder
	b.WriteString("§6.2.2 sensitivity analysis\n")
	fmt.Fprintf(&b, "  per-day update-rate std-dev: max %.4f across RouteViews collectors (paper: <0.005)\n", r.MaxStdDev)
	fmt.Fprintf(&b, "  RIPE set: median %.2f%%, max %.1f%% (paper: 2.74%%, 11.3%%)\n", r.RIPEMedian*100, r.RIPEMax*100)
	fmt.Fprintf(&b, "  IMAP-proxy workload (%d events): correlation with NomadLog rates %.2f (paper: 0.88)\n",
		r.IMAPEvents, r.Correlation)
	return b.String()
}

// Fig9Result is the dominant-location dwell CDF of Figure 9.
type Fig9Result struct {
	IP     stats.Summary
	Prefix stats.Summary
	AS     stats.Summary

	IPCDF, PrefixCDF, ASCDF []stats.Point
}

// RunFig9 computes Figure 9.
func RunFig9(w *World) Fig9Result {
	ip, prefix, as := w.Devices.DominantFractions()
	return Fig9Result{
		IP:        stats.Summarize(ip),
		Prefix:    stats.Summarize(prefix),
		AS:        stats.Summarize(as),
		IPCDF:     stats.NewCDF(ip).Points(40),
		PrefixCDF: stats.NewCDF(prefix).Points(40),
		ASCDF:     stats.NewCDF(as).Points(40),
	}
}

// Render prints the Figure 9 readout.
func (r Fig9Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 9 — fraction of the day spent at the dominant location (CDF across user-days)\n")
	fmt.Fprintf(&b, "  IP addresses : %s\n", r.IP)
	fmt.Fprintf(&b, "  IP prefixes  : %s\n", r.Prefix)
	fmt.Fprintf(&b, "  ASes         : %s\n", r.AS)
	fmt.Fprintf(&b, "  paper: ~70%% of the day at the dominant IP, ~85%% at the dominant AS for the typical user\n")
	return b.String()
}

// Fig10Result is the indirection-stretch readout of §6.3: the iPlane-style
// latency CDF over answerable home→current pairs, plus the shortest-AS-path
// lower bound.
type Fig10Result struct {
	Latency   stats.Summary
	Coverage  float64
	HopsLower stats.Summary

	LatencyCDF []stats.Point
}

// RunFig10 computes Figure 10 and the AS-hop lower bound.
func RunFig10(w *World) Fig10Result {
	pairs := w.Devices.DominantDisplacements()

	// Build the iPlane substitute over the access+hosting stub population.
	var targets []int
	seen := map[int]bool{}
	for _, p := range pairs {
		for _, as := range []int{p.DominantAS, p.VisitedAS} {
			if !seen[as] {
				seen[as] = true
				targets = append(targets, as)
			}
		}
	}
	sort.Ints(targets)
	pred := iplane.Build(w.Graph, targets, w.Cfg.IPlaneTraces, rand.New(rand.NewSource(w.Cfg.Seed+8)))

	lats, coverage := core.IndirectionStretchLatency(pred, pairs)
	hops := core.IndirectionStretchHops(w.Graph, pairs)
	return Fig10Result{
		Latency:    stats.Summarize(lats),
		Coverage:   coverage,
		HopsLower:  stats.Summarize(hops),
		LatencyCDF: stats.NewCDF(lats).Points(40),
	}
}

// Render prints the Figure 10 readout.
func (r Fig10Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 10 — displacement from the dominant location (indirection stretch)\n")
	fmt.Fprintf(&b, "  iPlane-style predictor answered %.1f%% of home→current pairs (paper: 5%%)\n", r.Coverage*100)
	fmt.Fprintf(&b, "  one-way delay over answered pairs: %s ms (paper median ≈50 ms)\n", r.Latency)
	fmt.Fprintf(&b, "  shortest-AS-path lower bound: %s hops (paper median 2)\n", r.HopsLower)
	return b.String()
}

// EnvelopeResult is the back-of-the-envelope calculation block (§6.2.2 and
// §7.3), evaluated with both the paper's stylized inputs and the measured
// workload's own numbers.
type EnvelopeResult struct {
	DeviceMedianLoad float64 // 2e9 devices × median events × measured rate
	DeviceMeanLoad   float64
	ContentLoad      float64
	ExtraFIBFrac     float64

	MeasuredEventMedian float64
	MeasuredEventMean   float64
	MeasuredUpdateFrac  float64
}

// RunEnvelope computes the envelope block from the measured workload and
// Figure 8's median router.
func RunEnvelope(w *World, fig8 Fig8Result, fig9 Fig9Result) EnvelopeResult {
	avgs := w.Devices.PerUserDailyAverages()
	var ipTrans []float64
	for _, a := range avgs {
		ipTrans = append(ipTrans, a.AvgIPTransitions)
	}
	c := stats.NewCDF(ipTrans)
	frac := fig8.Median()
	away := 1 - fig9.AS.P50
	return EnvelopeResult{
		DeviceMedianLoad:    core.UpdateLoadPerSec(2e9, c.Median(), frac),
		DeviceMeanLoad:      core.UpdateLoadPerSec(2e9, stats.Mean(ipTrans), frac),
		ContentLoad:         core.UpdateLoadPerSec(1e9, 2, 0.005),
		ExtraFIBFrac:        core.ExtraFIBFraction(frac, away),
		MeasuredEventMedian: c.Median(),
		MeasuredEventMean:   stats.Mean(ipTrans),
		MeasuredUpdateFrac:  frac,
	}
}

// Render prints the envelope block.
func (r EnvelopeResult) Render() string {
	var b strings.Builder
	b.WriteString("Back-of-the-envelope (§6.2.2, §7.3)\n")
	fmt.Fprintf(&b, "  2B devices × %.1f (median) events/day × %.1f%% ⇒ %.0f updates/sec (paper: 2.1K/sec)\n",
		r.MeasuredEventMedian, r.MeasuredUpdateFrac*100, r.DeviceMedianLoad)
	fmt.Fprintf(&b, "  2B devices × %.1f (mean) events/day × %.1f%% ⇒ %.0f updates/sec (paper: 4.8K/sec)\n",
		r.MeasuredEventMean, r.MeasuredUpdateFrac*100, r.DeviceMeanLoad)
	fmt.Fprintf(&b, "  1B content names × 2/day × 0.5%% ⇒ %.0f updates/sec (paper: ≤100/sec order)\n", r.ContentLoad)
	fmt.Fprintf(&b, "  displaced FIB entries: %.2f%% of devices (paper: ≈1%%)\n", r.ExtraFIBFrac*100)
	return b.String()
}

// SessionSweepResult is the collector-design ablation: how a collector's
// feed count drives its device update rate — the mechanism behind Figure
// 8's spread, isolated.
type SessionSweepResult struct {
	Points []struct {
		Sessions int
		Rate     float64
	}
}

// RunSessionSweep synthesizes one extra NorthAmerica collector per session
// count, over the world's graph and address plan, and measures its device
// update rate. Each count draws its sessions from its own RNG, derived from
// the master seed, so the points are independent of each other; all of them
// are filled in one route pass and counted against one move table.
func RunSessionSweep(w *World, counts []int) (SessionSweepResult, error) {
	var res SessionSweepResult
	cols := make([]*bgp.Collector, len(counts))
	for i, n := range counts {
		spec := bgp.Spec{
			Name:       fmt.Sprintf("sweep-%d", n),
			Region:     asgraph.NorthAmerica,
			NumSess:    n,
			GlobalFrac: 0.35,
		}
		c, err := bgp.NewCollector(w.Graph, spec, rand.New(rand.NewSource(w.Cfg.Seed+100+int64(i))))
		if err != nil {
			return res, err
		}
		cols[i] = c
	}
	bgp.FillCollectors(w.Graph, w.Prefixes, cols)
	moves := core.NewMoveTable(w.Devices.MoveEvents())
	rates := par.Map(w.Cfg.Parallel, len(cols), func(i int) float64 {
		return moves.Stats(w.Cfg.memo(cols[i].FIB))[0].Rate()
	})
	for i, rate := range rates {
		w.Cfg.Obs.rows(1)
		res.Points = append(res.Points, struct {
			Sessions int
			Rate     float64
		}{counts[i], rate})
	}
	return res, nil
}

// Render prints the sweep.
func (r SessionSweepResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — collector feed count vs device update rate\n")
	max := 0.0
	for _, p := range r.Points {
		if p.Rate > max {
			max = p.Rate
		}
	}
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %3d sessions: %6.2f%%  %s\n", p.Sessions, p.Rate*100, stats.Bar(p.Rate, max, 30))
	}
	return b.String()
}
