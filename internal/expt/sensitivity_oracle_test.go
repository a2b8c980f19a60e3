package expt

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"locind/internal/bgp"
	"locind/internal/core"
	"locind/internal/mobility"
	"locind/internal/par"
	"locind/internal/stats"
)

// deviceUpdateStats is core.DeviceUpdateStats, the per-event replay that
// core.MoveTable replaced, verbatim but for package qualifiers and the
// §3.1 displacement test written out: it asks r about both ends of every
// event. The oracles in this package count with it.
func deviceUpdateStats(r core.PortLookup, events []mobility.MoveEvent) core.UpdateStats {
	var s core.UpdateStats
	for _, e := range events {
		s.Events++
		p1, ok1 := r.Port(e.From)
		p2, ok2 := r.Port(e.To)
		if ok1 && ok2 && p1 != p2 {
			s.Updates++
		}
	}
	return s
}

// runSensitivityThreePasses is the RunSensitivity the single fan-out replaced,
// kept verbatim as its oracle: the NomadLog events day by day at the
// RouteViews collectors, whole at the RIPE collectors, and whole again at all
// 25 next to the IMAP events, a fresh memo per collector per pass.
func runSensitivityThreePasses(w *World) (SensitivityResult, error) {
	res := SensitivityResult{PerDayStdDev: map[string]float64{}}
	events := w.Devices.MoveEvents()

	// (1) Day-to-day stability at each RouteViews collector.
	byDay := map[int][]mobility.MoveEvent{}
	for _, e := range events {
		byDay[e.Day] = append(byDay[e.Day], e)
	}
	days := make([]int, 0, len(byDay))
	for d := range byDay {
		days = append(days, d)
	}
	sort.Ints(days)
	stdDevs := par.Map(w.Cfg.Parallel, len(w.RouteViews), func(i int) float64 {
		defer w.Cfg.Obs.collectorDone()
		memo := w.Cfg.memo(w.RouteViews[i].FIB)
		var rates []float64
		for _, d := range days {
			rates = append(rates, deviceUpdateStats(memo, byDay[d]).Rate())
		}
		return stats.StdDev(rates)
	})
	for i, sd := range stdDevs {
		res.PerDayStdDev[w.RouteViews[i].Name] = sd
		if sd > res.MaxStdDev {
			res.MaxStdDev = sd
		}
	}

	// (2) The RIPE collector set.
	ripeRates := par.Map(w.Cfg.Parallel, len(w.RIPE), func(i int) float64 {
		defer w.Cfg.Obs.collectorDone()
		return deviceUpdateStats(w.Cfg.memo(w.RIPE[i].FIB), events).Rate()
	})
	ripeCDF := stats.NewCDF(ripeRates)
	res.RIPEMedian = ripeCDF.Median()
	res.RIPEMax = ripeCDF.Max()

	// (3) The IMAP-style application-view workload over a larger user
	// population, correlated against the NomadLog workload across all 25
	// collectors.
	imapCfg := w.Cfg.Device
	imapCfg.Users = w.Cfg.IMAPUsers
	imapCfg.Days = w.Cfg.IMAPDays
	imapTrace, err := mobility.GenerateDeviceTrace(w.Graph, w.Prefixes, imapCfg, rand.New(rand.NewSource(w.Cfg.Seed+6)))
	if err != nil {
		return res, err
	}
	imapEvents := mobility.IMAPMoveEvents(imapTrace, 2.0, rand.New(rand.NewSource(w.Cfg.Seed+7)))
	res.IMAPEvents = len(imapEvents)

	all := append(append([]*bgp.Collector{}, w.RouteViews...), w.RIPE...)
	type ratePair struct{ nomad, imap float64 }
	pairs := par.Map(w.Cfg.Parallel, len(all), func(i int) ratePair {
		defer w.Cfg.Obs.collectorDone()
		memo := w.Cfg.memo(all[i].FIB)
		return ratePair{
			nomad: deviceUpdateStats(memo, events).Rate(),
			imap:  deviceUpdateStats(memo, imapEvents).Rate(),
		}
	})
	nomadRates := make([]float64, len(pairs))
	imapRates := make([]float64, len(pairs))
	for i, p := range pairs {
		nomadRates[i] = p.nomad
		imapRates[i] = p.imap
	}
	corr, err := stats.Pearson(nomadRates, imapRates)
	if err != nil {
		return res, fmt.Errorf("expt: NomadLog/IMAP rate correlation: %w", err)
	}
	res.Correlation = corr
	return res, nil
}

// TestSensitivityMatchesThreePasses requires the one-pass driver to return
// exactly what the three passes return — every per-collector std-dev, the
// RIPE median and max, the IMAP event count and the correlation, float for
// float — on three quick worlds, sequentially and fanned out.
func TestSensitivityMatchesThreePasses(t *testing.T) {
	for _, seed := range []int64{20140817, 7, 424242} {
		cfg := QuickConfig()
		cfg.Seed = seed
		w, err := BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runSensitivityThreePasses(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, parallel := range []int{1, 0} {
			w.Cfg.Parallel = parallel
			got, err := RunSensitivity(w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				g, x := got, want
				if reflect.DeepEqual(g.PerDayStdDev, x.PerDayStdDev) {
					g.PerDayStdDev, x.PerDayStdDev = nil, nil // the twelve std-devs agree: print what differs
				}
				t.Errorf("seed %d, parallel %d: one pass differs from three\n got %+v\nwant %+v", seed, parallel, g, x)
			}
		}
	}
}
