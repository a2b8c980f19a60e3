package bgp

import (
	"slices"

	"locind/internal/netaddr"
)

// FIB is a forwarding table: prefix -> selected best route, with output
// ports identified by next-hop AS (the paper's §6.2.2 proxy). It is a route
// column over a prefix index: idx maps each prefix to its slot in routes.
// The FIBs FillCollectors builds over one address plan share one index and
// keep a column each (DESIGN.md §5); any other FIB owns its index. The zero
// value is an empty FIB.
type FIB struct {
	idx    *netaddr.Trie[int32] // nil until the first Insert
	routes []Route              // one per prefix of idx, by slot
	shared bool                 // other FIBs read idx too: copy it before adding a prefix
}

// indexOf maps prefix(i) to slot i for every i < n.
func indexOf(n int, prefix func(i int) netaddr.Prefix) *netaddr.Trie[int32] {
	idx := &netaddr.Trie[int32]{}
	idx.Grow(n)
	for i := 0; i < n; i++ {
		idx.Insert(prefix(i), int32(i))
	}
	return idx
}

// ownFIB returns the FIB whose slot i is routes[i], on an index of its own;
// the routes' prefixes are distinct.
func ownFIB(routes []Route) *FIB {
	return &FIB{idx: indexOf(len(routes), func(i int) netaddr.Prefix { return routes[i].Prefix }), routes: routes}
}

// lookup is idx's longest-prefix match for a; a nil index holds nothing.
func lookup(idx *netaddr.Trie[int32], a netaddr.Addr) (int32, bool) {
	if idx == nil {
		return 0, false
	}
	return idx.Lookup(a)
}

// DeriveFIB computes the forwarding table: the best route's next-hop AS per
// prefix, on an index of its own with its slots in prefix order.
// FillCollectors fills its FIBs as it writes the candidates; this is for
// RIBs that were loaded or fed.
func (r *RIB) DeriveFIB() *FIB {
	ps := r.Prefixes()
	routes := make([]Route, len(ps))
	for i, p := range ps {
		routes[i] = r.best(p, r.byPrefix[p])
	}
	return ownFIB(routes)
}

// Insert adds or replaces the forwarding entry for p. Either way it writes
// this FIB's column only; a prefix new to a shared index is added to a copy
// of it, which this FIB then owns.
func (f *FIB) Insert(p netaddr.Prefix, rt Route) {
	if f.idx == nil {
		f.idx = &netaddr.Trie[int32]{}
	}
	if slot, ok := f.idx.Get(p); ok {
		f.routes[slot] = rt
		return
	}
	if f.shared {
		f.idx, f.shared = f.idx.Clone(), false
	}
	f.idx.Insert(p, int32(len(f.routes)))
	f.routes = append(f.routes, rt)
}

// Len returns the number of forwarding entries.
func (f *FIB) Len() int { return len(f.routes) }

// Port returns the output port (next-hop AS) for address a via
// longest-prefix matching.
func (f *FIB) Port(a netaddr.Addr) (int, bool) {
	slot, ok := lookup(f.idx, a)
	if !ok {
		return -1, false
	}
	return f.routes[slot].NextHop, true
}

// RouteFor returns the selected route whose prefix is the longest match for
// address a.
func (f *FIB) RouteFor(a netaddr.Addr) (Route, bool) {
	slot, ok := lookup(f.idx, a)
	if !ok {
		return Route{}, false
	}
	return f.routes[slot], true
}

// NextHopDegree counts the distinct output ports in use — the quantity the
// paper invokes to explain why the Georgia collector sees a much lower
// update rate than the Oregon collectors.
func (f *FIB) NextHopDegree() int {
	seen := map[int]bool{}
	for _, rt := range f.routes {
		seen[rt.NextHop] = true
	}
	return len(seen)
}

// Walk visits every forwarding entry in prefix order.
func (f *FIB) Walk(fn func(netaddr.Prefix, Route) bool) {
	if f.idx == nil {
		return
	}
	f.idx.Walk(func(p netaddr.Prefix, slot int32) bool { return fn(p, f.routes[slot]) })
}

// FIBSet resolves an address at several FIBs at once: one walk of each
// distinct prefix index among them, then one slot read per FIB, where asking
// each FIB would walk its index once per FIB. The set groups its FIBs by
// index when it is made, so it is made after their last Insert.
type FIBSet struct {
	fibs   []*FIB
	groups []fibGroup
}

// fibGroup is the members of a set that read one index.
type fibGroup struct {
	idx     *netaddr.Trie[int32]
	members []int
}

// NewFIBSet returns the set of fibs; RoutesFor answers for fibs[k] at k.
func NewFIBSet(fibs []*FIB) *FIBSet {
	s := &FIBSet{fibs: slices.Clone(fibs)}
	group := map[*netaddr.Trie[int32]]int{}
	for k, f := range fibs {
		g, ok := group[f.idx]
		if !ok {
			g = len(s.groups)
			group[f.idx] = g
			s.groups = append(s.groups, fibGroup{idx: f.idx})
		}
		s.groups[g].members = append(s.groups[g].members, k)
	}
	return s
}

// Len returns the number of FIBs in the set.
func (s *FIBSet) Len() int { return len(s.fibs) }

// RoutesFor writes what fibs[k].RouteFor(a) returns to out[k] and ok[k], for
// every k.
//
//lint:zeroalloc per address; the content kernel resolves every timeline address through it
func (s *FIBSet) RoutesFor(a netaddr.Addr, out []Route, ok []bool) {
	for _, g := range s.groups {
		slot, found := lookup(g.idx, a)
		for _, k := range g.members {
			var rt Route
			if found {
				rt = s.fibs[k].routes[slot]
			}
			out[k], ok[k] = rt, found
		}
	}
}
