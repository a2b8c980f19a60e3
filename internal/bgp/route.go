// Package bgp models the routing-plane substrate of the evaluation: RIB
// entries carrying the attributes the paper reads out of RouteViews dumps,
// the §6.2.1 decision process (customer > peer > provider standing in for
// local preference, then AS-path length, then MED), FIB derivation, and
// synthesis of RouteViews/RIPE-like route collectors on top of an
// asgraph.Graph.
package bgp

import (
	"fmt"
	"slices"
	"sync"

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
// origin's slots span nothing); NewRIB builds any other. A RIB that NewRIB
// built is complete; a batch RIB keeps its plan and writes its slab and spans
// once, on first read, and is not changed after.
type RIB struct {
	idx   *netaddr.Trie[int32] // prefix -> slot
	spans []span               // slot -> cands[lo:hi]; empty for a prefix with no route
	cands []cand
	attrs []attrSet  // one entry per session after a batch build
	paths *pathTable // for a batch build, shared with the other collectors of the build
	plan  *batchPlan // for a batch build, what ready writes the slab from
	once  sync.Once  // guards the batch slab's one write
}

// batchPlan is what a batch RIB's slab is written from: the plan's origin
// runs (run k is slots runs[k]:runs[k+1]), which every RIB of the fill
// shares, and peerOf[si], session si's peer in the path table.
type batchPlan struct {
	runs   []int
	peerOf []int32
}

// ready writes a batch RIB's slab and spans, once; every reader of either
// calls it first. The prefixes of one origin have the same candidates, at
// most one per session, so the slab holds one run of them per origin. A run
// is written back to back, in session order, and every prefix of its origin
// spans it; an unreachable origin's slots keep the empty span.
func (r *RIB) ready() {
	r.once.Do(func() {
		p := r.plan
		if p == nil {
			return
		}
		r.spans = make([]span, p.runs[len(p.runs)-1])
		cands := make([]cand, 0, (len(p.runs)-1)*len(r.attrs))
		for k := 0; k+1 < len(p.runs); k++ {
			base := int32(k * r.paths.stride)
			first := len(cands)
			for si := range r.attrs {
				path := base + p.peerOf[si]
				if r.paths.off[path+1] == r.paths.off[path] {
					continue // the peer has no route to this origin
				}
				cands = append(cands, cand{attr: int32(si), path: path})
			}
			if len(cands) == first {
				continue
			}
			run := span{int32(first), int32(len(cands))}
			for i := p.runs[k]; i < p.runs[k+1]; i++ {
				r.spans[i] = run
			}
		}
		r.cands = cands
	})
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

// pathTable is an AS-path store: the collectors of one BuildCollectors call
// share one, and NewRIB makes one of a single chunk. The paths of one origin
// lie back to back in one exactly-sized chunk: path i is
// chunks[i/stride][off[i]:off[i+1]], empty where the peer has no route. A
// chunk is never grown once a slice of it is out, so a Route that outlives
// the build pins its origin's chunk and nothing else.
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

// NewRIB builds the RIB whose candidates are routes: grouped by prefix, each
// prefix's in their order in routes, with slots in prefix order. The paths
// are copied back to back into one chunk, and equal attribute sets are
// stored once.
func NewRIB(routes []Route) *RIB {
	rs := slices.Clone(routes)
	slices.SortStableFunc(rs, func(a, b Route) int { return a.Prefix.Compare(b.Prefix) })
	need := 0
	for _, rt := range rs {
		need += len(rt.ASPath)
	}
	r := &RIB{cands: make([]cand, len(rs)), paths: &pathTable{stride: len(rs) + 1, off: make([]int32, len(rs)+1)}}
	chunk := make([]int, 0, need)
	var prefixes []netaddr.Prefix
	attrIdx := map[attrSet]int32{}
	for i, rt := range rs {
		if i == 0 || rt.Prefix != rs[i-1].Prefix {
			prefixes = append(prefixes, rt.Prefix)
			r.spans = append(r.spans, span{int32(i), int32(i)})
		}
		r.spans[len(r.spans)-1].hi++
		at := attrOf(rt)
		a, ok := attrIdx[at]
		if !ok {
			a = int32(len(r.attrs))
			attrIdx[at] = a
			r.attrs = append(r.attrs, at)
		}
		r.cands[i] = cand{attr: a, path: int32(i)}
		chunk = append(chunk, rt.ASPath...)
		r.paths.off[i+1] = int32(len(chunk))
	}
	r.paths.chunks = [][]int{chunk}
	r.idx = indexOf(len(prefixes), func(i int) netaddr.Prefix { return prefixes[i] })
	return r
}

// route materialises a stored candidate of prefix p. Its ASPath is a view of
// the path table, so this allocates nothing.
func (r *RIB) route(p netaddr.Prefix, c cand) Route {
	a := r.attrs[c.attr]
	return Route{Prefix: p, NextHop: a.NextHop, LocalPref: a.LocalPref, MED: a.MED, Rel: a.Rel, ASPath: r.paths.at(c.path)}
}

// pathLen is route(p, c).PathLen() without the route.
func (r *RIB) pathLen(c cand) int {
	return max(int(r.paths.off[c.path+1]-r.paths.off[c.path])-1, 0)
}

// walk calls fn with every prefix that has a route and its candidates, in
// prefix (Compare) order: the index's walk is.
func (r *RIB) walk(fn func(p netaddr.Prefix, cs []cand)) {
	r.ready()
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
	r.ready()
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
	r.ready()
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
