// Package core implements the paper's primary contribution: the
// quantitative methodology for comparing location-independent network
// architectures. It provides the displacement test of §3.1-3.2 (does a
// mobility event change a router's forwarding behaviour?), the multihomed
// update-cost definitions of §3.3.1 for best-port forwarding and controlled
// flooding (plus the union-of-past-addresses strategy sketched in §3.3.3),
// forwarding-table size and aggregateability accounting, and the per-
// architecture cost model used by the experiments.
package core

import (
	"slices"
	"strings"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/mobility"
	"locind/internal/names"
	"locind/internal/netaddr"
)

// PortLookup is the slice of router behaviour the displacement test needs:
// the output port (next-hop AS) an address forwards to.
type PortLookup interface {
	Port(a netaddr.Addr) (int, bool)
}

// RouteLookup additionally exposes the selected route, which the best-port
// strategy needs to rank addresses by path length.
type RouteLookup interface {
	PortLookup
	RouteFor(a netaddr.Addr) (bgp.Route, bool)
}

// Routers resolves an address at a fixed list of routers at once, the way
// the content kernel asks its questions: RoutesFor writes router k's
// selected route for a to out[k] and whether it has one to ok[k], for every
// k < Len(). bgp.FIBSet answers from one walk per shared prefix index; Each
// asks each router in turn.
type Routers interface {
	Len() int
	RoutesFor(a netaddr.Addr, out []bgp.Route, ok []bool)
}

// Each is the Routers that asks each RouteLookup in turn.
type Each []RouteLookup

// Len returns the number of routers.
func (rs Each) Len() int { return len(rs) }

// RoutesFor asks every router for a's route.
func (rs Each) RoutesFor(a netaddr.Addr, out []bgp.Route, ok []bool) {
	for k, r := range rs {
		out[k], ok[k] = r.RouteFor(a)
	}
}

// Displaced implements §3.1: a mobility event from one address to another
// displaces the endpoint with respect to a router iff the two addresses'
// longest-prefix matches point to different output ports. Events where
// either address has no route are not displacements (the paper's RIBs cover
// the full address space, so this arises only in truncated test tables).
func Displaced(r PortLookup, from, to netaddr.Addr) bool {
	p1, ok1 := r.Port(from)
	p2, ok2 := r.Port(to)
	return ok1 && ok2 && p1 != p2
}

// UpdateStats aggregates update-cost measurements at one router.
type UpdateStats struct {
	Events  int
	Updates int
}

// Rate returns Updates/Events (0 for an empty measurement).
func (s UpdateStats) Rate() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.Updates) / float64(s.Events)
}

// Add merges another measurement into s.
func (s *UpdateStats) Add(o UpdateStats) {
	s.Events += o.Events
	s.Updates += o.Updates
}

// MoveTable holds groups of device mobility events in the form the
// displacement test reads them: every distinct From/To address once, sorted,
// and each event as the rows of its two ends. A driver builds one per call
// and counts it at every collector; Stats only reads it, so concurrent
// callers may share it.
type MoveTable struct {
	addrs []netaddr.Addr // distinct event ends, sorted
	ends  []int32        // From and To rows, two per event, groups back to back
	cuts  []int          // group g is ends[cuts[g]:cuts[g+1]]
}

// NewMoveTable builds the table of the given event groups.
func NewMoveTable(groups ...[]mobility.MoveEvent) *MoveTable {
	t := &MoveTable{cuts: make([]int, 1, len(groups)+1)}
	for _, g := range groups {
		t.cuts = append(t.cuts, t.cuts[len(t.cuts)-1]+2*len(g))
	}
	t.addrs = make([]netaddr.Addr, 0, t.cuts[len(groups)])
	for _, g := range groups {
		for _, e := range g {
			t.addrs = append(t.addrs, e.From.Addr, e.To.Addr)
		}
	}
	slices.Sort(t.addrs)
	t.addrs = slices.Compact(t.addrs)
	t.ends = make([]int32, 0, t.cuts[len(groups)])
	for _, g := range groups {
		for _, e := range g {
			from, _ := slices.BinarySearch(t.addrs, e.From.Addr)
			to, _ := slices.BinarySearch(t.addrs, e.To.Addr)
			t.ends = append(t.ends, int32(from), int32(to))
		}
	}
	return t
}

// Stats measures, per group, the fraction of events that induce a
// forwarding update at router r — the quantity plotted per collector in
// Figure 8 — by Displaced's rule. It asks r about each distinct address
// once; an event then costs two row reads and integer compares.
func (t *MoveTable) Stats(r PortLookup) []UpdateStats {
	row := make([]int32, len(t.addrs)) // interned port, -1 for no route
	ports := map[int]int32{}
	for i, a := range t.addrs {
		p, ok := r.Port(a)
		if !ok {
			row[i] = -1
			continue
		}
		k, seen := ports[p]
		if !seen {
			k = int32(len(ports))
			ports[p] = k
		}
		row[i] = k
	}
	out := make([]UpdateStats, len(t.cuts)-1)
	for g := range out {
		ends := t.ends[t.cuts[g]:t.cuts[g+1]]
		out[g].Events = len(ends) / 2
		for i := 0; i < len(ends); i += 2 {
			p1, p2 := row[ends[i]], row[ends[i+1]]
			if p1 >= 0 && p2 >= 0 && p1 != p2 {
				out[g].Updates++
			}
		}
	}
	return out
}

// StrategyStats bundles the per-strategy totals of one fused replay.
type StrategyStats struct {
	BestPort UpdateStats
	Flooding UpdateStats
	Union    UpdateStats
}

// Add merges another replay's totals into s.
func (s *StrategyStats) Add(o StrategyStats) {
	s.BestPort.Add(o.BestPort)
	s.Flooding.Add(o.Flooding)
	s.Union.Add(o.Union)
}

// portBits is a set of one router's output ports, one bit per port in the
// order the router first met them. It grows a word whenever that router
// interns a port past its width, so one code path serves a router of any
// session count (every collector bgp.BuildCollectors makes fits one word).
type portBits []uint64

// addTo merges b into union, reporting whether b held a port union lacked
// (§3.3.3's update condition).
func (b portBits) addTo(union portBits) bool {
	grew := false
	for i, w := range b {
		if w&^union[i] != 0 {
			union[i] |= w
			grew = true
		}
	}
	return grew
}

// resolved is what one address contributes at one router: the output port
// and AS-path length of its selected route, and the port's bit in that
// router's port sets; bit < 0 means no route.
type resolved struct {
	port         int
	pathLen, bit int32
}

// routerEval is one router's share of the multi-router replay: its port
// interning, its equally wide port sets (this event's, the previous one's,
// the timeline's union), this and the previous event's best port, totals.
type routerEval struct {
	bit                map[int]int32
	ports, prev, union portBits
	best, prevBest     int
	bestLen            int32
	bestOK, prevOK     bool
	stats              *StrategyStats
}

// resolve is what the router's route rt for an address contributes (ok
// false: it has none), interning the port on first sight.
func (s *routerEval) resolve(rt bgp.Route, ok bool) resolved {
	if !ok {
		return resolved{bit: -1}
	}
	b, seen := s.bit[rt.NextHop]
	if !seen {
		b = int32(len(s.bit))
		s.bit[rt.NextHop] = b
		if int(b>>6) == len(s.ports) {
			s.ports, s.prev, s.union = append(s.ports, 0), append(s.prev, 0), append(s.union, 0)
		}
	}
	return resolved{port: rt.NextHop, pathLen: int32(rt.PathLen()), bit: b}
}

// count scores one event from the current and previous port sets — or, for
// the timeline's initial set, only seeds the union — then makes the current
// ones previous.
func (s *routerEval) count(initial bool) {
	if initial {
		copy(s.union, s.ports)
	} else {
		s.stats.BestPort.Events++
		if s.prevOK && s.bestOK && s.prevBest != s.best {
			s.stats.BestPort.Updates++
		}
		s.stats.Flooding.Events++
		if !slices.Equal(s.ports, s.prev) {
			s.stats.Flooding.Updates++
		}
		s.stats.Union.Events++
		if s.ports.addTo(s.union) {
			s.stats.Union.Updates++
		}
	}
	s.ports, s.prev = s.prev, s.ports
	s.prevBest, s.prevOK = s.best, s.bestOK
}

// multiEval is the reusable scratch of the multi-router replay. addrs holds
// the current timeline's distinct addresses, sorted; row i of res holds
// addrs[i]'s resolution at every router, so the routers are asked about an
// address once per timeline however often it leaves and comes back. Both
// are sized in one step per timeline from the timeline's own length, so the
// table never grows inside a walk. routes and ok take one address's answers
// from every router.
type multiEval struct {
	routers Routers
	rs      []routerEval
	addrs   []netaddr.Addr
	res     []resolved
	routes  []bgp.Route
	ok      []bool
}

// load rebuilds the table for tl, resolving each of its addresses at every
// router in one RoutesFor (which must answer the same for an address for as
// long as the replay runs): every address a set of tl holds is initial or
// added by an event.
func (m *multiEval) load(tl *cdn.Timeline) {
	need := len(tl.Initial)
	for i := range tl.Events {
		need += len(tl.Events[i].Added)
	}
	m.addrs = append(slices.Grow(m.addrs[:0], need), tl.Initial...)
	for i := range tl.Events {
		m.addrs = append(m.addrs, tl.Events[i].Added...)
	}
	slices.Sort(m.addrs)
	m.addrs = slices.Compact(m.addrs)
	m.res = slices.Grow(m.res[:0], len(m.addrs)*len(m.rs))
	for _, a := range m.addrs {
		m.routers.RoutesFor(a, m.routes, m.ok)
		for k := range m.rs {
			m.res = append(m.res, m.rs[k].resolve(m.routes[k], m.ok[k]))
		}
	}
}

// closer implements the order of best(FIB(R, d, t)): a route of AS-path
// length l via port p beats the best so far (bestLen via best) if its path is
// shorter, or as long through a lower next hop — "closest copy first". The
// order's last tie-break, the address, never decides the port: two routes
// tied on (path length, next hop) leave through the same one.
func closer(l int32, p int, bestLen int32, best int) bool {
	return l < bestLen || (l == bestLen && p < best)
}

// advance leaves every router's port set and best port for the set after.
func (m *multiEval) advance(after []netaddr.Addr) {
	for k := range m.rs {
		clear(m.rs[k].ports)
		m.rs[k].bestOK = false
	}
	n := len(m.rs)
	for _, a := range after {
		row, _ := slices.BinarySearch(m.addrs, a)
		for k, e := range m.res[row*n : row*n+n] {
			if e.bit < 0 {
				continue
			}
			s := &m.rs[k]
			s.ports[e.bit>>6] |= 1 << (e.bit & 63)
			if !s.bestOK || closer(e.pathLen, e.port, s.bestLen, s.best) {
				s.best, s.bestLen, s.bestOK = e.port, e.pathLen, true
			}
		}
	}
}

// replay is one timeline's walk for every router; resolutions and union
// state start over with every timeline.
func (m *multiEval) replay(tl *cdn.Timeline) {
	if len(tl.Events) == 0 {
		return // Walk visits nothing
	}
	m.load(tl)
	primed := false
	tl.Walk(func(_ cdn.Event, before, after []netaddr.Addr) {
		if !primed {
			m.advance(before)
			for k := range m.rs {
				m.rs[k].count(true)
			}
			primed = true
		}
		m.advance(after)
		for k := range m.rs {
			m.rs[k].count(false)
		}
	})
}

// ContentUpdateStatsPerRouter replays each timeline once for all routers,
// evaluating all three §3.3.1 strategies in that one Timeline.Walk, and
// returns one pooled total per router (union state starts over with every
// timeline). The routers are asked about an address once per timeline, all
// in one RoutesFor; port sets are bitsets over each router's interned ports.
// The counts are those of the per-strategy replay (ContentUpdateStats in
// strategy_oracle_test.go) run per router and strategy. Once the scratch is
// warm, a further timeline costs only what Timeline.Walk allocates for its
// own buffers.
//
//lint:zeroalloc per event, and per timeline beyond Timeline.Walk's own buffers
func ContentUpdateStatsPerRouter(routers Routers, tls []cdn.Timeline) []StrategyStats {
	n := routers.Len()
	out := make([]StrategyStats, n)
	m := multiEval{routers: routers, rs: make([]routerEval, n), routes: make([]bgp.Route, n), ok: make([]bool, n)}
	for k := range m.rs {
		m.rs[k] = routerEval{bit: map[int]int32{}, stats: &out[k]}
	}
	for i := range tls {
		m.replay(&tls[i])
	}
	return out
}

// ContentUpdateStatsAllFused is ContentUpdateStatsPerRouter for one router.
//
//lint:zeroalloc per event, and per timeline beyond Timeline.Walk's own buffers
func ContentUpdateStatsAllFused(r RouteLookup, tls []cdn.Timeline) StrategyStats {
	return ContentUpdateStatsPerRouter(Each{r}, tls)[0]
}

// AggregateabilityPerRouter computes Figure 12's column: the §3.3.2
// aggregateability |complete| / |LPM| of the best-port name table at every
// router of rs (1 where a router routes no name). A name's port at a router
// is its closest address's; the name is in the complete table iff some
// address has a route. A routed name stays in the LPM table iff none of its
// proper suffixes is routed there, or the nearest that is has another port.
// That is len(names.BuildLPMTable) of the complete table without the trie:
// by induction on depth, a subsumed ancestor resolves to its own port, so a
// name resolves to its nearest routed ancestor's. The names are sorted and
// their suffix chains found once for every router, and each address is
// resolved once for all of them, in one RoutesFor.
//
//lint:zeroalloc per address, after the per-call name, suffix and port tables
func AggregateabilityPerRouter(rs Routers, sets map[names.Name][]netaddr.Addr) []float64 {
	ns := make([]names.Name, 0, len(sets))
	for n := range sets {
		ns = append(ns, n)
	}
	slices.Sort(ns)
	// up[cut[i]:cut[i+1]] holds the rows of ns[i]'s proper suffixes in ns,
	// nearest first.
	var up []int32
	cut := make([]int, 1, len(ns)+1)
	for _, n := range ns {
		up = appendSuffixRows(up, ns, n)
		cut = append(cut, len(up))
	}
	nr := rs.Len()
	routes, ok := make([]bgp.Route, nr), make([]bool, nr)
	// Row i of best is ns[i]'s best route at every router; pathLen < 0 means
	// no address of it has one.
	type bestRoute struct {
		port    int
		pathLen int32
	}
	best := make([]bestRoute, len(ns)*nr)
	for i, n := range ns {
		row := best[i*nr : i*nr+nr]
		for k := range row {
			row[k].pathLen = -1
		}
		for _, a := range sets[n] {
			rs.RoutesFor(a, routes, ok)
			for k, rt := range routes {
				l := int32(rt.PathLen())
				if ok[k] && (row[k].pathLen < 0 || closer(l, rt.NextHop, row[k].pathLen, row[k].port)) {
					row[k] = bestRoute{rt.NextHop, l}
				}
			}
		}
	}
	out := make([]float64, nr)
	for k := range out {
		complete, lpm := 0, 0
		for i := range ns {
			b := best[i*nr+k]
			if b.pathLen < 0 {
				continue
			}
			complete++
			lpm++
			for _, j := range up[cut[i]:cut[i+1]] {
				if anc := best[int(j)*nr+k]; anc.pathLen >= 0 {
					if anc.port == b.port {
						lpm-- // subsumed
					}
					break
				}
			}
		}
		out[k] = 1
		if complete > 0 {
			out[k] = float64(complete) / float64(lpm)
		}
	}
	return out
}

// appendSuffixRows appends the rows in sorted ns of n's proper suffixes,
// nearest first: what follows each dot, then the root "". A trailing dot's
// empty suffix is the root too, as in names.Trie, where an empty Name
// reaches only the root.
func appendSuffixRows(up []int32, ns []names.Name, n names.Name) []int32 {
	for s := string(n); s != ""; {
		if dot := strings.IndexByte(s, '.'); dot >= 0 {
			s = s[dot+1:]
		} else {
			s = ""
		}
		if j, found := slices.BinarySearch(ns, names.Name(s)); found {
			up = append(up, int32(j))
		}
	}
	return up
}
