package expt

import (
	"fmt"
	"slices"
	"strings"

	"locind/internal/cdn"
	"locind/internal/stats"
)

// Experiment is one table or figure of the evaluation as locind runs it.
type Experiment struct {
	Name string
	Help string // one line for locind's usage
	// World reports whether Run reads Session.World.
	World bool
	// Timelines reports whether Run reads the world's content timelines,
	// which World.Timelines generates on first use.
	Timelines bool
	// OptIn keeps the entry out of "all".
	OptIn bool
	Run   func(*Session) (Output, error)
}

// Output is what one experiment produced: the text locind prints and the
// figure series its -out export writes.
type Output struct {
	Text   string
	Series []CSV
}

// CSV is one exported series file.
type CSV struct {
	Name string
	Body string
}

// Session is the run state of one invocation: what every entry reads, plus
// the results one entry hands another, each computed once.
type Session struct {
	Cfg   Config
	Quick bool
	// World must be set before an entry with World runs.
	World  *World
	GNSObs *GNSClusterObs

	f8 *Fig8Result
	f9 *Fig9Result
}

// fig8 runs RunFig8 on the session's world once; envelope reads it too.
func (s *Session) fig8() Fig8Result {
	if s.f8 == nil {
		r := RunFig8(s.World)
		s.f8 = &r
	}
	return *s.f8
}

// fig9 runs RunFig9 on the session's world once; envelope reads it too.
func (s *Session) fig9() Fig9Result {
	if s.f9 == nil {
		r := RunFig9(s.World)
		s.f9 = &r
	}
	return *s.f9
}

// all names every entry but the opt-in ones.
const all = "all"

// Experiments is the evaluation in the order locind runs and prints it.
var Experiments = []Experiment{
	{Name: "table1", Help: "§5 analytic model: stretch vs update cost on toy topologies",
		Run: func(s *Session) (Output, error) {
			n := 255
			if s.Quick {
				n = 63
			}
			return text(RunTable1(n, 100, 500, s.Cfg.Seed)), nil
		}},
	{Name: "netsim", Help: "packet-level comparison of the three architectures, content traffic, compact routing",
		Run: func(s *Session) (Output, error) {
			res, err := RunNetsim(s.Cfg.Seed)
			if err != nil {
				return Output{}, err
			}
			traffic, err := RunContentTraffic(s.Cfg.Seed)
			if err != nil {
				return Output{}, err
			}
			comp, err := RunCompact(s.Cfg.Seed)
			return text(res, traffic, comp), err
		}},
	{Name: "gns-cluster", Help: "chaos soak of the sharded, replicated GNS cluster (1M names: minutes; -quick for CI scale)", OptIn: true,
		Run: func(s *Session) (Output, error) {
			res, err := RunGNSClusterObserved(s.Cfg.Seed, s.Quick, s.GNSObs)
			return text(res), err
		}},
	{Name: "fig6", Help: "distinct network locations per user per day", World: true,
		Run: func(s *Session) (Output, error) {
			r := RunFig6(s.World)
			return Output{r.Render(), []CSV{cdfs("fig6.csv", r.IPCDF, r.PrefixCDF, r.ASCDF)}}, nil
		}},
	{Name: "fig7", Help: "transitions across network locations per day", World: true,
		Run: func(s *Session) (Output, error) {
			r := RunFig7(s.World)
			return Output{r.Render(), []CSV{cdfs("fig7.csv", r.IPCDF, r.PrefixCDF, r.ASCDF)}}, nil
		}},
	{Name: "fig8", Help: "device mobility update rate per collector", World: true,
		Run: func(s *Session) (Output, error) {
			r := s.fig8()
			return Output{r.Render(), []CSV{bars("fig8.csv", r.Routers)}}, nil
		}},
	{Name: "sensitivity", Help: "§6.2.2 robustness: days, RIPE set, IMAP-proxy correlation", World: true,
		Run: func(s *Session) (Output, error) {
			r, err := RunSensitivity(s.World)
			return text(r), err
		}},
	{Name: "envelope", Help: "back-of-the-envelope update loads", World: true,
		Run: func(s *Session) (Output, error) {
			return text(RunEnvelope(s.World, s.fig8(), s.fig9())), nil
		}},
	{Name: "fig9", Help: "dominant-location dwell fractions", World: true,
		Run: func(s *Session) (Output, error) {
			r := s.fig9()
			return Output{r.Render(), []CSV{cdfs("fig9.csv", r.IPCDF, r.PrefixCDF, r.ASCDF)}}, nil
		}},
	{Name: "fig10", Help: "indirection stretch: latency + AS-hop lower bound", World: true,
		Run: func(s *Session) (Output, error) {
			r := RunFig10(s.World)
			return Output{r.Render(), []CSV{curves("fig10.csv", map[string][]stats.Point{"latency_ms": r.LatencyCDF})}}, nil
		}},
	{Name: "fig11a", Help: "popular content mobility events per day", World: true, Timelines: true,
		Run: func(s *Session) (Output, error) {
			r := RunFig11a(s.World)
			return Output{r.Render(), []CSV{curves("fig11a.csv", map[string][]stats.Point{"events_per_day": r.CDF})}}, nil
		}},
	{Name: "fig11b", Help: "popular content update rate per collector", World: true, Timelines: true,
		Run: func(s *Session) (Output, error) { return fig11bc(s, cdn.Popular, "fig11b"), nil }},
	{Name: "fig11c", Help: "unpopular content update rate per collector", World: true, Timelines: true,
		Run: func(s *Session) (Output, error) { return fig11bc(s, cdn.Unpopular, "fig11c"), nil }},
	{Name: "fig12", Help: "FIB aggregateability of popular names", World: true, Timelines: true,
		Run: func(s *Session) (Output, error) {
			r := RunFig12(s.World)
			return Output{r.Render(), []CSV{aggregateability(r)}}, nil
		}},
	{Name: "ablate", Help: "forwarding-strategy, collector-feed and intradomain-renumbering ablations", World: true, Timelines: true,
		Run: func(s *Session) (Output, error) {
			abl := RunStrategyAblation(s.World)
			sweep, err := RunSessionSweep(s.World, []int{2, 4, 8, 16, 24, 36})
			if err != nil {
				return Output{}, err
			}
			intra, err := RunIntradomain(s.Cfg.Seed)
			return text(abl, sweep, intra), err
		}},
}

// Select resolves locind's arguments to table entries: each named entry
// once, in table order; "all" is every entry but the opt-in ones.
func Select(args []string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, a := range args {
		want[strings.ToLower(a)] = true
	}
	var sel []Experiment
	names := make([]string, 0, len(Experiments)+1)
	for _, e := range Experiments {
		names = append(names, e.Name)
		if want[e.Name] || want[all] && !e.OptIn {
			sel = append(sel, e)
		}
	}
	names = append(names, all)
	for _, a := range args {
		if !slices.Contains(names, strings.ToLower(a)) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", strings.ToLower(a), strings.Join(names, " "))
		}
	}
	return sel, nil
}

// Usage renders the experiment list of locind's usage, one line per entry.
func Usage() string {
	var b strings.Builder
	for _, e := range Experiments {
		help := e.Help
		if e.OptIn {
			help += " (opt-in)"
		}
		fmt.Fprintf(&b, "  %-12s %s\n", e.Name, help)
	}
	fmt.Fprintf(&b, "  %-12s every experiment above but the opt-in ones\n", all)
	return b.String()
}

// text joins the renders of one entry's drivers, a blank line apart.
func text(rs ...interface{ Render() string }) Output {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.Render()
	}
	return Output{Text: strings.Join(parts, "\n")}
}

// fig11bc renders Figure 11(b) or 11(c) and its two bar series.
func fig11bc(s *Session, class cdn.Class, name string) Output {
	r := RunFig11bc(s.World, class)
	return Output{r.Render(), []CSV{
		bars(name+"_flooding.csv", r.Flooding),
		bars(name+"_bestport.csv", r.BestPort),
	}}
}
