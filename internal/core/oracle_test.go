package core_test

import (
	"slices"
	"testing"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/core"
	"locind/internal/expt"
	"locind/internal/netaddr"
)

// perEventEval is the fused replay as it stood before resolutions were
// carried forward: every event resolves its whole after-set twice, once for
// the port set and once for the best port. The bodies of appendPortSet,
// unionAdd and replay are the production code of that commit, verbatim; the
// carry-forward evaluator is compared against them below.
type perEventEval struct {
	ports, prev, union []int
}

func appendPortSet(r core.PortLookup, addrs []netaddr.Addr, buf []int) []int {
	buf = buf[:0]
	for _, a := range addrs {
		if p, ok := r.Port(a); ok {
			buf = append(buf, p)
		}
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

func (f *perEventEval) unionAdd(ports []int) bool {
	grew := false
	for _, p := range ports {
		i, found := slices.BinarySearch(f.union, p)
		if found {
			continue
		}
		f.union = slices.Insert(f.union, i, p)
		grew = true
	}
	return grew
}

func (f *perEventEval) replay(r core.RouteLookup, tl *cdn.Timeline) core.StrategyStats {
	var out core.StrategyStats
	primed := false
	var prevBest int
	var prevBestOK bool
	f.union = f.union[:0]
	tl.Walk(func(_ cdn.Event, before, after []netaddr.Addr) {
		if !primed {
			f.prev = appendPortSet(r, before, f.prev)
			prevBest, prevBestOK = core.BestPortOf(r, before)
			f.union = append(f.union[:0], f.prev...)
			primed = true
		}
		f.ports = appendPortSet(r, after, f.ports)
		best, bestOK := core.BestPortOf(r, after)

		out.BestPort.Events++
		if prevBestOK && bestOK && prevBest != best {
			out.BestPort.Updates++
		}
		out.Flooding.Events++
		if !slices.Equal(f.ports, f.prev) {
			out.Flooding.Updates++
		}
		out.Union.Events++
		if f.unionAdd(f.ports) {
			out.Union.Updates++
		}
		f.ports, f.prev = f.prev, f.ports
		prevBest, prevBestOK = best, bestOK
	})
	return out
}

func perEventAll(r core.RouteLookup, tls []cdn.Timeline) core.StrategyStats {
	var f perEventEval
	var s core.StrategyStats
	for i := range tls {
		s.Add(f.replay(r, &tls[i]))
	}
	return s
}

// countingLookup counts what the evaluator asks of the router.
type countingLookup struct {
	r             core.RouteLookup
	ports, routes int
}

func (c *countingLookup) Port(a netaddr.Addr) (int, bool) {
	c.ports++
	return c.r.Port(a)
}

func (c *countingLookup) RouteFor(a netaddr.Addr) (bgp.Route, bool) {
	c.routes++
	return c.r.RouteFor(a)
}

// entries counts the addresses that enter a content set over the pool: the
// distinct initial addresses of every timeline that has events, plus every
// address an event's after-set holds and its before-set does not.
func entries(tls []cdn.Timeline) int {
	n := 0
	for i := range tls {
		first := true
		tls[i].Walk(func(_ cdn.Event, before, after []netaddr.Addr) {
			if first {
				n += len(before)
				first = false
			}
			for _, a := range after {
				if _, stayed := slices.BinarySearch(before, a); !stayed {
					n++
				}
			}
		})
	}
	return n
}

// TestCarryForwardMatchesPerEventReplay holds the carry-forward evaluator to
// the per-event one on real inputs — every RouteViews and RIPE collector of
// three seeded quick worlds, popular and unpopular timelines, each pool
// replayed through one shared scratch — both over the raw FIB and over a
// Memo, and pins what the rewrite is for: one route lookup per address
// entering a set, and none through Port.
func TestCarryForwardMatchesPerEventReplay(t *testing.T) {
	for _, seed := range []int64{20140817, 7, 424242} {
		cfg := expt.QuickConfig()
		cfg.Seed = seed
		w, err := expt.BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		popular, unpopular := w.TimelinesByClass()
		for _, pool := range []struct {
			class string
			tls   []cdn.Timeline
		}{{"popular", popular}, {"unpopular", unpopular}} {
			want := entries(pool.tls)
			if want == 0 {
				t.Fatalf("seed %d: no %s address ever enters a set", seed, pool.class)
			}
			for _, c := range slices.Concat(w.RouteViews, w.RIPE) {
				oracle := perEventAll(c.FIB, pool.tls)
				counted := &countingLookup{r: c.FIB}
				if got := core.ContentUpdateStatsAllFused(counted, pool.tls); got != oracle {
					t.Fatalf("seed %d %s %s: raw FIB %+v, per-event replay %+v", seed, c.Name, pool.class, got, oracle)
				}
				if counted.routes != want || counted.ports != 0 {
					t.Fatalf("seed %d %s %s: %d RouteFor and %d Port calls, want %d and 0",
						seed, c.Name, pool.class, counted.routes, counted.ports, want)
				}
				if got := core.ContentUpdateStatsAllFused(core.NewMemo(c.FIB), pool.tls); got != oracle {
					t.Fatalf("seed %d %s %s: memo %+v, per-event replay %+v", seed, c.Name, pool.class, got, oracle)
				}
			}
		}
	}
}
