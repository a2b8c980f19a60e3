package core_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/core"
	"locind/internal/expt"
	"locind/internal/mobility"
	"locind/internal/netaddr"
)

// perEventEval is the fused replay as it stood before resolutions were
// carried forward: every event resolves its whole after-set twice, once for
// the port set and once for the best port. The bodies of appendPortSet,
// unionAdd and replay are the production code of that commit, verbatim; the
// multi-router kernel is compared against them below.
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

// fusedEval is the one-router fused replay as it stood before the
// multi-router kernel replaced it: resolutions carried forward beside the
// set, port sets as sorted slices. Its types and bodies are the production
// code of that commit, verbatim but for package qualifiers.

// resolved is what one address contributes at one router: the output port
// and AS-path length of its selected route, or ok == false for no route.
type resolved struct {
	port, pathLen int
	ok            bool
}

// fusedEval is the reusable scratch of the fused replay. res holds one
// resolution per address of the current set, in Timeline.Walk's sorted
// order, so the router is asked about an address once, when it enters the
// set, not at every event the address lives through; the port sets (two
// ping-pong buffers and the cumulative union) are read from res alone.
// Everything is a plain slice that allocates only while it warms up, so a
// shard of timelines replays with an allocation count independent of its
// events.
type fusedEval struct {
	res, next          []resolved
	ports, prev, union []int
}

// advance moves the evaluator from the sorted set before, which f.res is
// aligned with, to the sorted set after: one ordered merge in which an
// address that stayed keeps its entry and an address that entered is
// resolved (r must answer the same for an address for as long as the replay
// runs). It leaves after's sorted, deduplicated eligible ports in f.ports and
// returns its best port in BestPortOf's order — whose last tie-break, the
// address, never decides the port: two routes tied on (path length, next
// hop) leave through the same one.
func (f *fusedEval) advance(r core.RouteLookup, before, after []netaddr.Addr) (best int, ok bool) {
	f.next, f.ports = f.next[:0], f.ports[:0]
	var i, bestLen int
	for _, a := range after {
		for i < len(before) && before[i] < a {
			i++
		}
		var e resolved
		if i < len(before) && before[i] == a {
			e = f.res[i]
		} else {
			rt, routed := r.RouteFor(a)
			e = resolved{port: rt.NextHop, pathLen: rt.PathLen(), ok: routed}
		}
		f.next = append(f.next, e)
		if !e.ok {
			continue
		}
		f.ports = append(f.ports, e.port)
		if !ok || e.pathLen < bestLen || (e.pathLen == bestLen && e.port < best) {
			best, bestLen, ok = e.port, e.pathLen, true
		}
	}
	f.res, f.next = f.next, f.res
	slices.Sort(f.ports)
	f.ports = slices.Compact(f.ports)
	return best, ok
}

// unionAdd merges the sorted port set into the sorted cumulative union,
// reporting whether any never-before-seen port appeared (§3.3.3's update
// condition). Port sets are tiny, so the per-port binary search + insert is
// cheaper than any hashing.
func (f *fusedEval) unionAdd(ports []int) bool {
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

// replay is one timeline's fused walk; resolutions and union state start
// over with every timeline.
func (f *fusedEval) replay(r core.RouteLookup, tl *cdn.Timeline) core.StrategyStats {
	var out core.StrategyStats
	primed := false
	var prevBest int
	var prevBestOK bool
	tl.Walk(func(_ cdn.Event, before, after []netaddr.Addr) {
		if !primed {
			prevBest, prevBestOK = f.advance(r, nil, before)
			f.ports, f.prev = f.prev, f.ports
			f.union = append(f.union[:0], f.prev...)
			primed = true
		}
		best, bestOK := f.advance(r, before, after)

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

func fusedAll(r core.RouteLookup, tls []cdn.Timeline) core.StrategyStats {
	var f fusedEval
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

// distinctPerTimeline counts, over every timeline that has events, the
// distinct addresses that are ever in its set: what a router is asked once
// each when resolutions live for a whole timeline.
func distinctPerTimeline(tls []cdn.Timeline) int {
	n := 0
	for i := range tls {
		seen := map[netaddr.Addr]bool{}
		tls[i].Walk(func(_ cdn.Event, before, after []netaddr.Addr) {
			for _, a := range slices.Concat(before, after) {
				seen[a] = true
			}
		})
		n += len(seen)
	}
	return n
}

// TestPerRouterKernelMatchesOracles holds the multi-router kernel to both
// evaluators it replaced on real inputs — all 25 RouteViews and RIPE
// collectors of three seeded quick worlds in one call, popular and
// unpopular pools, over the raw FIBs, over Memos and over the FIBs as one
// bgp.FIBSet — and pins what it is for: one route lookup per distinct
// address per timeline at each router, and none through Port.
func TestPerRouterKernelMatchesOracles(t *testing.T) {
	for _, seed := range []int64{20140817, 7, 424242} {
		cfg := expt.QuickConfig()
		cfg.Seed = seed
		w, err := expt.BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cols := slices.Concat(w.RouteViews, w.RIPE)
		popular, unpopular := w.TimelinesByClass()
		for _, pool := range []struct {
			class string
			tls   []cdn.Timeline
		}{{"popular", popular}, {"unpopular", unpopular}} {
			want := distinctPerTimeline(pool.tls)
			if want == 0 {
				t.Fatalf("seed %d: no %s address ever enters a set", seed, pool.class)
			}
			counted := make([]*countingLookup, len(cols))
			raw, memos := make([]core.RouteLookup, len(cols)), make([]core.RouteLookup, len(cols))
			fibs := make([]*bgp.FIB, len(cols))
			for i, c := range cols {
				counted[i] = &countingLookup{r: c.FIB}
				raw[i], memos[i], fibs[i] = counted[i], core.NewMemo(c.FIB), c.FIB
			}
			got := core.ContentUpdateStatsPerRouter(core.Each(raw), pool.tls)
			viaMemo := core.ContentUpdateStatsPerRouter(core.Each(memos), pool.tls)
			viaSet := core.ContentUpdateStatsPerRouter(bgp.NewFIBSet(fibs), pool.tls)
			for i, c := range cols {
				oracle := perEventAll(c.FIB, pool.tls)
				if got[i] != oracle {
					t.Fatalf("seed %d %s %s: raw FIB %+v, per-event replay %+v", seed, c.Name, pool.class, got[i], oracle)
				}
				if fused := fusedAll(c.FIB, pool.tls); fused != oracle {
					t.Fatalf("seed %d %s %s: one-router fused replay %+v, per-event replay %+v", seed, c.Name, pool.class, fused, oracle)
				}
				if viaMemo[i] != oracle {
					t.Fatalf("seed %d %s %s: memo %+v, per-event replay %+v", seed, c.Name, pool.class, viaMemo[i], oracle)
				}
				if viaSet[i] != oracle {
					t.Fatalf("seed %d %s %s: FIB set %+v, per-event replay %+v", seed, c.Name, pool.class, viaSet[i], oracle)
				}
				if counted[i].routes != want || counted[i].ports != 0 {
					t.Fatalf("seed %d %s %s: %d RouteFor and %d Port calls, want %d and 0",
						seed, c.Name, pool.class, counted[i].routes, counted[i].ports, want)
				}
			}
		}
	}
}

// portsAsked records every address a caller asks a router's port for.
type portsAsked struct {
	r     core.PortLookup
	asked map[netaddr.Addr]int
}

func (p *portsAsked) Port(a netaddr.Addr) (int, bool) {
	p.asked[a]++
	return p.r.Port(a)
}

// sensitivityGroups is the event grouping RunSensitivity counts: the NomadLog
// events day by day in day order, then the IMAP events, built from the
// world's streams as RunSensitivity builds them. The whole trace is appended
// as one more group, the grouping RunFig8 and the session sweep count.
func sensitivityGroups(t *testing.T, w *expt.World) [][]mobility.MoveEvent {
	t.Helper()
	events := w.Devices.MoveEvents()
	byDay := map[int][]mobility.MoveEvent{}
	for _, e := range events {
		byDay[e.Day] = append(byDay[e.Day], e)
	}
	days := make([]int, 0, len(byDay))
	for d := range byDay {
		days = append(days, d)
	}
	sort.Ints(days)
	var groups [][]mobility.MoveEvent
	for _, d := range days {
		groups = append(groups, byDay[d])
	}
	imapCfg := w.Cfg.Device
	imapCfg.Users = w.Cfg.IMAPUsers
	imapCfg.Days = w.Cfg.IMAPDays
	imapTrace, err := mobility.GenerateDeviceTrace(w.Graph, w.Prefixes, imapCfg, rand.New(rand.NewSource(w.Cfg.Seed+6)))
	if err != nil {
		t.Fatal(err)
	}
	imap := mobility.IMAPMoveEvents(imapTrace, 2.0, rand.New(rand.NewSource(w.Cfg.Seed+7)))
	if len(days) < 2 || len(imap) == 0 {
		t.Fatalf("seed %d: %d days and %d IMAP events: too little to compare", w.Cfg.Seed, len(days), len(imap))
	}
	return append(groups, imap, events)
}

// TestMoveTableMatchesPerEventReplay holds the move table to the per-event
// replay it replaced (DeviceUpdateStats) on all 25 RouteViews and RIPE
// collectors of three seeded quick worlds, for the NomadLog events per day,
// the IMAP events and the whole trace in one table, over the raw FIBs and
// over Memos. It pins what the table is for: each router is asked about each
// distinct event address exactly once, and about nothing else.
func TestMoveTableMatchesPerEventReplay(t *testing.T) {
	for _, seed := range []int64{20140817, 7, 424242} {
		cfg := expt.QuickConfig()
		cfg.Seed = seed
		w, err := expt.BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		groups := sensitivityGroups(t, w)
		distinct := map[netaddr.Addr]bool{}
		for _, g := range groups {
			for _, e := range g {
				distinct[e.From], distinct[e.To] = true, true
			}
		}
		moves := core.NewMoveTable(groups...)
		for _, c := range slices.Concat(w.RouteViews, w.RIPE) {
			counted := &portsAsked{r: c.FIB, asked: map[netaddr.Addr]int{}}
			got := moves.Stats(counted)
			viaMemo := moves.Stats(core.NewMemo(c.FIB))
			if len(got) != len(groups) {
				t.Fatalf("seed %d %s: %d group totals for %d groups", seed, c.Name, len(got), len(groups))
			}
			for g, events := range groups {
				want := core.DeviceUpdateStats(c.FIB, events)
				if got[g] != want || viaMemo[g] != want {
					t.Fatalf("seed %d %s group %d of %d: table %+v, via memo %+v, per-event replay %+v",
						seed, c.Name, g, len(groups), got[g], viaMemo[g], want)
				}
			}
			if len(counted.asked) != len(distinct) {
				t.Fatalf("seed %d %s: asked about %d addresses, the events hold %d", seed, c.Name, len(counted.asked), len(distinct))
			}
			for a, n := range counted.asked {
				if n != 1 || !distinct[a] {
					t.Fatalf("seed %d %s: asked about %v %d times (an event address: %v), want once", seed, c.Name, a, n, distinct[a])
				}
			}
		}
	}
}

// TestAggregateabilityPerRouterMatchesTrie holds Figure 12's one-pass count
// to the collector-at-a-time trie path (Aggregateability of BestPortTable,
// in bestport_oracle_test.go) on every collector of three seeded quick worlds, for the
// hour-0 popular and unpopular tables, through the FIBs as one bgp.FIBSet
// and one at a time.
func TestAggregateabilityPerRouterMatchesTrie(t *testing.T) {
	for _, seed := range []int64{20140817, 7, 424242} {
		cfg := expt.QuickConfig()
		cfg.Seed = seed
		w, err := expt.BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cols := slices.Concat(w.RouteViews, w.RIPE)
		fibs, each := make([]*bgp.FIB, len(cols)), make(core.Each, len(cols))
		for i, c := range cols {
			fibs[i], each[i] = c.FIB, c.FIB
		}
		popular, unpopular := w.TimelinesByClass()
		for _, pool := range []struct {
			class string
			tls   []cdn.Timeline
		}{{"popular", popular}, {"unpopular", unpopular}} {
			sets := cdn.CompleteTable(pool.tls, 0)
			viaSet := core.AggregateabilityPerRouter(bgp.NewFIBSet(fibs), sets)
			viaEach := core.AggregateabilityPerRouter(each, sets)
			for i, c := range cols {
				oracle := core.AggregateabilityBestPort(c.FIB, sets)
				if viaSet[i] != oracle || viaEach[i] != oracle {
					t.Fatalf("seed %d %s %s: FIB set %v, one at a time %v, trie oracle %v",
						seed, c.Name, pool.class, viaSet[i], viaEach[i], oracle)
				}
			}
		}
	}
}
