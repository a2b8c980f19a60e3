package vantage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/netaddr"
)

// The content pipeline's own timeline code before cdn took it over, kept
// as oracles: replayDay fed each node's hourly sets, measuredTimelineOracle
// was Controller.MeasuredTimeline and sameTimeline was vantaged's check.
// TestPipelineMatchesOracles holds dayUpload (via Timeline.SetAt) and
// MeasuredTimelines (via cdn.FromSets) to them.

// oracleDayUpload is dayUpload over replayDay.
func oracleDayUpload(node string, idx, day int, tls []cdn.Timeline) Upload {
	up := Upload{Node: node, Day: day}
	for t := range tls {
		tl := &tls[t]
		replayDay(tl, day, func(hour int, set []netaddr.Addr) {
			seen := partialView(idx, set)
			addrs := make([]string, len(seen))
			for i, a := range seen {
				addrs[i] = a.String()
			}
			up.Reports = append(up.Reports, Report{Hour: hour, Name: string(tl.Site.Name), Addrs: addrs})
		})
	}
	return up
}

// replayDay materializes the timeline's address set for each hour of one
// day, replaying events from the start rather than calling SetAt per hour.
func replayDay(tl *cdn.Timeline, day int, fn func(hour int, set []netaddr.Addr)) {
	cur := map[netaddr.Addr]bool{}
	for _, a := range tl.Initial {
		cur[a] = true
	}
	ei := 0
	buf := make([]netaddr.Addr, 0, len(cur))
	for h := 0; h < min(24*(day+1), tl.Hours); h++ {
		for ei < len(tl.Events) && tl.Events[ei].Hour == h {
			for _, a := range tl.Events[ei].Removed {
				delete(cur, a)
			}
			for _, a := range tl.Events[ei].Added {
				cur[a] = true
			}
			ei++
		}
		if h < 24*day {
			continue
		}
		buf = buf[:0]
		for a := range cur {
			buf = append(buf, a)
		}
		// Sorted order keeps every node's behaviour — including
		// PartialView's index-based fallback — independent of map
		// iteration, which same-seed chaos replays rely on.
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		fn(h, buf)
	}
}

// measuredTimelineOracle reconstructs a cdn.Timeline for one site from the
// controller's merged observations with a map diff per hour.
func measuredTimelineOracle(c *Controller, site cdn.Site, hours int) (cdn.Timeline, error) {
	if hours <= 0 {
		return cdn.Timeline{}, fmt.Errorf("vantage: need positive hours, have %d", hours)
	}
	initial := c.MergedSet(site.Name, 0)
	if len(initial) == 0 {
		return cdn.Timeline{}, fmt.Errorf("vantage: no hour-0 observations for %q", site.Name)
	}
	tl := cdn.Timeline{Site: site, Hours: hours, Initial: initial}
	prev := map[netaddr.Addr]bool{}
	for _, a := range initial {
		prev[a] = true
	}
	for h := 1; h < hours; h++ {
		cur := c.MergedSet(site.Name, h)
		var ev cdn.Event
		seen := map[netaddr.Addr]bool{}
		for _, a := range cur {
			seen[a] = true
			if !prev[a] {
				ev.Added = append(ev.Added, a)
			}
		}
		for a := range prev {
			if !seen[a] {
				ev.Removed = append(ev.Removed, a)
			}
		}
		if len(ev.Added) > 0 || len(ev.Removed) > 0 {
			ev.Hour = h
			// Sort removed deterministically (Added comes sorted from
			// MergedSet; Removed is collected from map iteration).
			slices.Sort(ev.Removed)
			tl.Events = append(tl.Events, ev)
			prev = seen
		}
	}
	return tl, nil
}

// sameTimeline reports whether got starts from want's address set and goes
// through want's events: the same hours, the same addresses added and removed.
func sameTimeline(got, want *cdn.Timeline) bool {
	if !sameAddrs(got.Initial, want.Initial) || len(got.Events) != len(want.Events) {
		return false
	}
	for i, w := range want.Events {
		g := got.Events[i]
		if g.Hour != w.Hour || !sameAddrs(g.Added, w.Added) || !sameAddrs(g.Removed, w.Removed) {
			return false
		}
	}
	return true
}

// sameAddrs compares two address lists as sets.
func sameAddrs(a, b []netaddr.Addr) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// vantagedTimelines is cmd/vantaged's substrate at the given seed: the
// same AS graph, prefix table, deployment and trace, at few domains.
func vantagedTimelines(t *testing.T, seed int64, domains, hours int) []cdn.Timeline {
	t.Helper()
	acfg := asgraph.DefaultSynthConfig()
	acfg.Tier2 = 80
	acfg.Stubs = 700
	g, err := asgraph.Synthesize(acfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := bgp.NewPrefixTable(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cdn.DefaultConfig()
	ccfg.PopularDomains = domains
	ccfg.UnpopularDomains = domains / 2
	dep, err := cdn.Generate(g, pt, ccfg, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	return dep.Timelines(hours, rand.New(rand.NewSource(seed+2)))
}

// TestPipelineMatchesOracles runs vantaged's pipeline in process at three
// seeds, with two nodes (too few: partial views leave sets uncovered, so
// names genuinely mismatch) and eight. Every (node, day) body is byte for
// byte the replayDay oracle's, every measured timeline is the map-diff
// oracle's, and vantaged's check — equality with cdn.FromSets over the
// truth's sets — judges every name as sameTimeline did.
func TestPipelineMatchesOracles(t *testing.T) {
	const days, hours = 3, 72
	mismatched := map[int]int{}
	for _, seed := range []int64{1, 2, 3} {
		tls := vantagedTimelines(t, seed, 3, hours)
		sites := make([]cdn.Site, len(tls))
		for i := range tls {
			sites[i] = tls[i].Site
		}
		for _, nodes := range []int{2, 8} {
			ctrl := NewController()
			for idx := 0; idx < nodes; idx++ {
				node := fmt.Sprintf("pl%03d", idx)
				for day := 0; day < days; day++ {
					up := dayUpload(node, idx, day, tls)
					got, err := json.Marshal(up)
					if err != nil {
						t.Fatal(err)
					}
					want, err := json.Marshal(oracleDayUpload(node, idx, day, tls))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("seed %d %s day %d: body differs from the replayDay oracle's", seed, node, day)
					}
					if err := ctrl.Commit(nil, &up); err != nil {
						t.Fatal(err)
					}
				}
			}
			measured, err := ctrl.MeasuredTimelines(sites, hours)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tls {
				want, err := measuredTimelineOracle(ctrl, sites[i], hours)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(measured[i], want) {
					t.Fatalf("seed %d, %d nodes, %s: measured %+v, oracle %+v", seed, nodes, sites[i].Name, measured[i], want)
				}
				same := reflect.DeepEqual(measured[i], cdn.FromSets(tls[i].Site, hours, tls[i].SetAt))
				if same != sameTimeline(&want, &tls[i]) {
					t.Fatalf("seed %d, %d nodes, %s: FromSets check says %v, sameTimeline %v", seed, nodes, sites[i].Name, same, !same)
				}
				if !same {
					mismatched[nodes]++
				}
			}
		}
	}
	if mismatched[8] != 0 || mismatched[2] == 0 {
		t.Fatalf("mismatched names by node count: %v; want none at 8 and some at 2", mismatched)
	}
}
