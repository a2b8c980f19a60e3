package bgp

import (
	"slices"

	"locind/internal/netaddr"
)

// FIB is a forwarding table: prefix -> selected best route, with output
// ports identified by next-hop AS (the paper's §6.2.2 proxy). It is a column
// of 16-byte entries over a prefix index: idx maps each prefix to its slot in
// entries, and an entry names its route as a candidate of one store, rib —
// the collector's RIB for FillCollectors, the deriving RIB for DeriveFIB, a
// private NewRIB that the first Insert makes for the zero FIB. The FIBs
// FillCollectors builds over one address plan share one index and keep a
// column each (DESIGN.md §5); any other FIB owns its index. The zero value
// is an empty FIB.
type FIB struct {
	idx     *netaddr.Trie[int32] // nil until the first Insert
	entries []entry              // one per prefix of idx, by slot
	rib     *RIB                 // the store the entries name; nil until the first Insert
	shared  bool                 // other FIBs read idx too: copy it before adding a prefix
}

// entry is one forwarding entry: its prefix and the selected candidate.
type entry struct {
	prefix netaddr.Prefix
	c      cand
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

// ownFIB returns the FIB whose slot i is entries[i], read through rib, on an
// index of its own; the entries' prefixes are distinct.
func ownFIB(rib *RIB, entries []entry) *FIB {
	idx := indexOf(len(entries), func(i int) netaddr.Prefix { return entries[i].prefix })
	return &FIB{idx: idx, entries: entries, rib: rib}
}

// lookup is idx's longest-prefix match for a; a nil index holds nothing.
func lookup(idx *netaddr.Trie[int32], a netaddr.Addr) (int32, bool) {
	if idx == nil {
		return 0, false
	}
	return idx.Lookup(a)
}

// DeriveFIB computes the forwarding table: the best candidate per prefix,
// read through r, on an index of its own with its slots in prefix order.
// FillCollectors fills its FIBs as it writes the candidates; this is for
// RIBs that were loaded or fed.
func (r *RIB) DeriveFIB() *FIB {
	entries := make([]entry, 0, r.NumPrefixes())
	r.walk(func(p netaddr.Prefix, cs []cand) { entries = append(entries, entry{p, r.best(p, cs)}) })
	return ownFIB(r, entries)
}

// Insert adds or replaces p's forwarding entry, which answers rt with p as
// its prefix. It writes this FIB's column, and rt's attribute set and path
// into its store's own tables, never a store candidate; a prefix new to a
// shared index goes into a copy of it, which this FIB then owns. A
// replacement reuses the path slot an earlier Insert of p minted, so a
// stream of replacements grows the store by no more than one slot a prefix.
func (f *FIB) Insert(p netaddr.Prefix, rt Route) {
	if f.idx == nil {
		f.idx, f.rib = &netaddr.Trie[int32]{}, NewRIB()
	}
	if slot, ok := f.idx.Get(p); ok {
		// An own slot that no candidate of p names is one this FIB's Insert
		// minted: nothing else reads it.
		old := f.entries[slot].c
		if old.path < 0 && !slices.ContainsFunc(f.rib.candsOf(p), func(c cand) bool { return c.path == old.path }) {
			f.rib.own[^old.path] = rt.ASPath
			f.entries[slot].c.attr = f.rib.attr(attrOf(rt))
			return
		}
		f.entries[slot] = entry{p, f.rib.intern(rt)}
		return
	}
	e := entry{p, f.rib.intern(rt)}
	if f.shared {
		f.idx, f.shared = f.idx.Clone(), false
	}
	f.idx.Insert(p, int32(len(f.entries)))
	f.entries = append(f.entries, e)
}

// Len returns the number of forwarding entries.
func (f *FIB) Len() int { return len(f.entries) }

// Port returns the output port (next-hop AS) for address a via
// longest-prefix matching.
//
//lint:zeroalloc per address; the device drivers resolve every move's two ends through it
func (f *FIB) Port(a netaddr.Addr) (int, bool) {
	slot, ok := lookup(f.idx, a)
	if !ok {
		return -1, false
	}
	return f.rib.attrs[f.entries[slot].c.attr].NextHop, true
}

// RouteFor returns the selected route whose prefix is the longest match for
// address a.
//
//lint:zeroalloc per address; the route is built from the store's tables, its path a view of them
func (f *FIB) RouteFor(a netaddr.Addr) (Route, bool) {
	slot, ok := lookup(f.idx, a)
	if !ok {
		return Route{}, false
	}
	e := f.entries[slot]
	return f.rib.route(e.prefix, e.c), true
}

// NextHopDegree counts the distinct output ports in use — the quantity the
// paper invokes to explain why the Georgia collector sees a much lower
// update rate than the Oregon collectors — from the attribute sets the
// column names, each read once.
func (f *FIB) NextHopDegree() int {
	if f.rib == nil {
		return 0
	}
	named, hops := make([]bool, len(f.rib.attrs)), make([]int, 0, len(f.rib.attrs))
	for _, e := range f.entries {
		if !named[e.c.attr] {
			named[e.c.attr] = true
			hops = append(hops, f.rib.attrs[e.c.attr].NextHop)
		}
	}
	slices.Sort(hops)
	return len(slices.Compact(hops))
}

// Walk visits every forwarding entry in prefix order.
func (f *FIB) Walk(fn func(netaddr.Prefix, Route) bool) {
	if f.idx == nil {
		return
	}
	f.idx.Walk(func(p netaddr.Prefix, slot int32) bool { return fn(p, f.rib.route(p, f.entries[slot].c)) })
}

// FIBSet resolves an address at several FIBs at once: one walk of each
// distinct prefix index among them, then one entry read per FIB, where asking
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

// RoutesFor writes the next hop and the AS-path length of the route
// fibs[k].RouteFor(a) returns to hop[k] and pathLen[k], and whether it
// returns one to ok[k], for every k; the kernel reads nothing else of a route.
//
//lint:zeroalloc per address; the content kernel resolves every timeline address through it
func (s *FIBSet) RoutesFor(a netaddr.Addr, hop, pathLen []int, ok []bool) {
	for _, g := range s.groups {
		slot, found := lookup(g.idx, a)
		for _, k := range g.members {
			var h, l int
			if found {
				f := s.fibs[k]
				c := f.entries[slot].c
				h, l = f.rib.attrs[c.attr].NextHop, f.rib.pathLen(c)
			}
			hop[k], pathLen[k], ok[k] = h, l, found
		}
	}
}
