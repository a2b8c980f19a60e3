// Package bgp models the routing-plane substrate of the evaluation: RIB
// entries carrying the attributes the paper reads out of RouteViews dumps,
// the §6.2.1 decision process (customer > peer > provider standing in for
// local preference, then AS-path length, then MED), FIB derivation, and
// synthesis of RouteViews/RIPE-like route collectors on top of an
// asgraph.Graph.
package bgp

import (
	"fmt"
	"sort"

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

// Origin returns the final AS on the path (the prefix's origin), or -1 for
// an empty path.
func (r Route) Origin() int {
	if len(r.ASPath) == 0 {
		return -1
	}
	return r.ASPath[len(r.ASPath)-1]
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
// routes heard from the collector's sessions.
type RIB struct {
	byPrefix map[netaddr.Prefix][]Route
}

// NewRIB returns an empty RIB.
func NewRIB() *RIB {
	return &RIB{byPrefix: map[netaddr.Prefix][]Route{}}
}

// NewRIBSized returns an empty RIB pre-sized for about n prefixes, sparing
// bulk loaders the incremental map growth of NewRIB.
func NewRIBSized(n int) *RIB {
	return &RIB{byPrefix: make(map[netaddr.Prefix][]Route, n)}
}

// Add inserts a candidate route.
func (r *RIB) Add(rt Route) {
	r.byPrefix[rt.Prefix] = append(r.byPrefix[rt.Prefix], rt)
}

// NumPrefixes returns the number of distinct prefixes with at least one
// route.
func (r *RIB) NumPrefixes() int { return len(r.byPrefix) }

// NumRoutes returns the total number of candidate routes.
func (r *RIB) NumRoutes() int {
	total := 0
	for _, rs := range r.byPrefix {
		total += len(rs)
	}
	return total
}

// Routes returns the candidate routes for prefix p (nil if none). The slice
// must not be modified.
func (r *RIB) Routes(p netaddr.Prefix) []Route { return r.byPrefix[p] }

// Best runs the decision process over the candidates for p.
func (r *RIB) Best(p netaddr.Prefix) (Route, bool) {
	rs := r.byPrefix[p]
	if len(rs) == 0 {
		return Route{}, false
	}
	best := rs[0]
	for _, rt := range rs[1:] {
		if Better(rt, best) {
			best = rt
		}
	}
	return best, true
}

// Prefixes returns all prefixes in deterministic (Compare) order.
func (r *RIB) Prefixes() []netaddr.Prefix {
	ps := make([]netaddr.Prefix, 0, len(r.byPrefix))
	for p := range r.byPrefix {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
	return ps
}

// DeriveFIB computes the forwarding table: the best route's next-hop AS per
// prefix, in a longest-prefix-match trie.
func (r *RIB) DeriveFIB() *FIB {
	f := &FIB{}
	f.trie.Grow(len(r.byPrefix))
	for p, rs := range r.byPrefix {
		best := rs[0]
		for _, rt := range rs[1:] {
			if Better(rt, best) {
				best = rt
			}
		}
		f.trie.Insert(p, best)
	}
	return f
}

// FIB is a forwarding table: prefix -> selected best route, with output
// ports identified by next-hop AS (the paper's §6.2.2 proxy). The zero
// value is an empty FIB.
type FIB struct {
	trie netaddr.Trie[Route]
}

// Insert adds or replaces the forwarding entry for p.
func (f *FIB) Insert(p netaddr.Prefix, rt Route) { f.trie.Insert(p, rt) }

// Len returns the number of forwarding entries.
func (f *FIB) Len() int { return f.trie.Len() }

// Port returns the output port (next-hop AS) for address a via
// longest-prefix matching.
func (f *FIB) Port(a netaddr.Addr) (int, bool) {
	rt, ok := f.trie.Lookup(a)
	if !ok {
		return -1, false
	}
	return rt.NextHop, true
}

// RouteFor returns the selected route whose prefix is the longest match for
// address a.
func (f *FIB) RouteFor(a netaddr.Addr) (Route, bool) {
	return f.trie.Lookup(a)
}

// NextHopDegree counts the distinct output ports in use — the quantity the
// paper invokes to explain why the Georgia collector sees a much lower
// update rate than the Oregon collectors.
func (f *FIB) NextHopDegree() int {
	seen := map[int]bool{}
	f.trie.Walk(func(_ netaddr.Prefix, rt Route) bool {
		seen[rt.NextHop] = true
		return true
	})
	return len(seen)
}

// Walk visits every forwarding entry in prefix order.
func (f *FIB) Walk(fn func(netaddr.Prefix, Route) bool) { f.trie.Walk(fn) }
