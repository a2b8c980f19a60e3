// Package bgp models the routing-plane substrate of the evaluation: RIB
// entries carrying the attributes the paper reads out of RouteViews dumps,
// the §6.2.1 decision process (customer > peer > provider standing in for
// local preference, then AS-path length, then MED), FIB derivation, and
// synthesis of RouteViews/RIPE-like route collectors on top of an
// asgraph.Graph.
package bgp

import (
	"fmt"

	"locind/internal/asgraph"
	"locind/internal/netaddr"
)

// Route is one RIB entry: a single interdomain route toward a prefix,
// mirroring the attribute columns in the paper's §6.2.1 RIB schema
// (ip_prefix, next_hop, local_pref, metric, AS path).
type Route struct {
	Prefix    netaddr.Prefix
	NextHop   int         // next-hop AS; the paper's output-port proxy
	LocalPref int         // uniformly 0 in RouteViews dumps; kept for completeness
	MED       int         // multi-exit discriminator (lower preferred)
	ASPath    []int       // from the next hop to the origin, inclusive
	Rel       asgraph.Rel // relationship of the collector's host AS to NextHop
}

// PathLen returns the AS-path length in hops (len(ASPath)-1); a route with
// an empty path has length 0.
func (r Route) PathLen() int {
	if len(r.ASPath) == 0 {
		return 0
	}
	return len(r.ASPath) - 1
}

// String renders the route like a RIB dump line.
func (r Route) String() string {
	return fmt.Sprintf("%s nh=AS%d lp=%d med=%d rel=%s path=%v",
		r.Prefix, r.NextHop, r.LocalPref, r.MED, r.Rel, r.ASPath)
}

// Better reports whether route a is preferred over route b under the
// paper's rules, applied in priority order:
//
//  1. higher local preference — and since RouteViews publishes local_pref
//     uniformly 0, relationship class (customer > peer > provider) is the
//     effective first rule, exactly as §6.2.1 does;
//  2. shorter AS path;
//  3. smaller MED;
//  4. (determinism) lower next-hop AS.
func Better(a, b Route) bool {
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if a.Rel != b.Rel {
		return a.Rel < b.Rel // RelCustomer < RelPeer < RelProvider
	}
	if a.PathLen() != b.PathLen() {
		return a.PathLen() < b.PathLen()
	}
	if a.MED != b.MED {
		return a.MED < b.MED
	}
	return a.NextHop < b.NextHop
}

// RIB is a routing information base: for each prefix, the set of candidate
// routes heard from the collector's sessions. A candidate is stored as two
// indices (DESIGN.md §5); Route is what the accessors materialise from them.
// The candidates live in one slab: idx maps a prefix to its slot, and the
// slot's span is its run of the slab. The RIBs FillCollectors builds over one
// address plan share the plan's index (slot i is the plan's prefix i, both
// prefixes of an origin span the origin's one run, and an unreachable
// origin's slots span nothing); a RIB that Adds a prefix new to a shared
// index copies it first.
type RIB struct {
	idx       *netaddr.Trie[int32] // prefix -> slot
	spans     []span               // slot -> cands[lo:hi]; empty for a prefix with no route
	cands     []cand
	sharedIdx bool      // other RIBs and FIBs read idx too: copy it before adding a prefix
	attrs     []attrSet // this RIB's own; one entry per session after a batch build
	attrIdx   map[attrSet]int32
	shared    *pathTable // the batch build's paths; other collectors read it, Add never writes it
	own       [][]int    // paths that arrived through Add; candidates name slot k as ^k
}

// span is one slot's run of the candidate slab, cands[lo:hi].
type span struct{ lo, hi int32 }

// cand is a stored candidate route. Only the indices are narrow: the tables
// keep int fields, because a dump may carry any integer.
type cand struct{ attr, path int32 }

// attrSet is what a route carries besides its prefix and path.
type attrSet struct {
	NextHop, LocalPref, MED int
	Rel                     asgraph.Rel
}

// attrOf is rt's attribute set.
func attrOf(rt Route) attrSet { return attrSet{rt.NextHop, rt.LocalPref, rt.MED, rt.Rel} }

// pathTable is the AS-path store the collectors of one BuildCollectors call
// share. The paths of one origin lie back to back in one exactly-sized chunk:
// path i is chunks[i/stride][off[i]:off[i+1]], empty where the peer has no
// route. A chunk is never grown once a slice of it is out, so a Route that
// outlives the build pins its origin's chunk and nothing else.
type pathTable struct {
	stride int // offsets per chunk: one per peer, plus the chunk's end
	off    []int32
	chunks [][]int
}

// fill writes the paths from every peer to rt's destination as chunk k, at
// the offsets chunk k owns: distinct k may be filled at once.
func (t *pathTable) fill(k int, rt *asgraph.RouteTable, peers []int) {
	need := 0
	for _, p := range peers {
		need += rt.PathLen(p) + 1 // PathLen is -1 where p has no route
	}
	chunk := make([]int, 0, need)
	off := t.off[k*t.stride : (k+1)*t.stride]
	for i, p := range peers {
		off[i] = int32(len(chunk))
		chunk = rt.AppendPath(chunk, p)
	}
	off[len(peers)] = int32(len(chunk))
	t.chunks[k] = chunk
}

func (t *pathTable) at(i int32) []int {
	lo, hi := t.off[i], t.off[i+1]
	return t.chunks[int(i)/t.stride][lo:hi:hi]
}

// NewRIB returns an empty RIB.
func NewRIB() *RIB { return &RIB{idx: &netaddr.Trie[int32]{}, attrIdx: map[attrSet]int32{}} }

// route materialises a stored candidate of prefix p. Its ASPath is a view of
// the shared table or the slice Add was given, so this allocates nothing.
func (r *RIB) route(p netaddr.Prefix, c cand) Route {
	a := r.attrs[c.attr]
	rt := Route{Prefix: p, NextHop: a.NextHop, LocalPref: a.LocalPref, MED: a.MED, Rel: a.Rel}
	if c.path < 0 {
		rt.ASPath = r.own[^c.path]
	} else {
		rt.ASPath = r.shared.at(c.path)
	}
	return rt
}

// attr interns a in the RIB's attribute table.
func (r *RIB) attr(a attrSet) int32 {
	i, ok := r.attrIdx[a]
	if !ok {
		i = int32(len(r.attrs))
		r.attrs = append(r.attrs, a)
		r.attrIdx[a] = i
	}
	return i
}

// pathLen is route(p, c).PathLen() without the route; no candidate names an
// empty path of the shared table.
func (r *RIB) pathLen(c cand) int {
	if c.path >= 0 {
		return int(r.shared.off[c.path+1]-r.shared.off[c.path]) - 1
	}
	return max(len(r.own[^c.path])-1, 0)
}

// intern stores rt's attribute set and path in the RIB's own tables, never in
// the path table it shares with other collectors, and returns the candidate
// that names them.
func (r *RIB) intern(rt Route) cand {
	c := cand{attr: r.attr(attrOf(rt)), path: ^int32(len(r.own))}
	r.own = append(r.own, rt.ASPath)
	return c
}

// Add inserts a candidate route after the others of its prefix. A prefix new
// to the index gets a slot. The route goes in place when the prefix's run
// ends the slab (it always does while routes come grouped by prefix, as a
// dump's do); otherwise the run moves to the slab's end first, so no other
// slot's run sees the write.
func (r *RIB) Add(rt Route) {
	c := r.intern(rt)
	slot, ok := r.idx.Get(rt.Prefix)
	if !ok {
		if r.sharedIdx {
			r.idx, r.sharedIdx = r.idx.Clone(), false
		}
		slot = int32(len(r.spans))
		r.idx.Insert(rt.Prefix, slot)
		r.spans = append(r.spans, span{int32(len(r.cands)), int32(len(r.cands))})
	}
	s := &r.spans[slot]
	if int(s.hi) != len(r.cands) {
		lo := int32(len(r.cands))
		r.cands = append(r.cands, r.cands[s.lo:s.hi]...)
		*s = span{lo, int32(len(r.cands))}
	}
	r.cands = append(r.cands, c)
	s.hi++
}

// candsOf returns p's candidates, nil if it has none.
func (r *RIB) candsOf(p netaddr.Prefix) []cand {
	slot, ok := r.idx.Get(p)
	if !ok {
		return nil
	}
	s := r.spans[slot]
	return r.cands[s.lo:s.hi]
}

// walk calls fn with every prefix that has a route and its candidates, in
// prefix (Compare) order: the index's walk is.
func (r *RIB) walk(fn func(p netaddr.Prefix, cs []cand)) {
	r.idx.Walk(func(p netaddr.Prefix, slot int32) bool {
		if s := r.spans[slot]; s.hi > s.lo {
			fn(p, r.cands[s.lo:s.hi])
		}
		return true
	})
}

// NumPrefixes returns the number of distinct prefixes with at least one
// route.
func (r *RIB) NumPrefixes() int {
	n := 0
	for _, s := range r.spans {
		if s.hi > s.lo {
			n++
		}
	}
	return n
}

// NumRoutes returns the total number of candidate routes.
func (r *RIB) NumRoutes() int {
	total := 0
	for _, s := range r.spans {
		total += int(s.hi - s.lo)
	}
	return total
}

// best runs the decision process over cs, the non-empty candidates of p, and
// returns the one it selects.
func (r *RIB) best(p netaddr.Prefix, cs []cand) cand {
	best, bestRt := cs[0], r.route(p, cs[0])
	for _, c := range cs[1:] {
		if rt := r.route(p, c); Better(rt, bestRt) {
			best, bestRt = c, rt
		}
	}
	return best
}
