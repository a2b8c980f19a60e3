package core

import (
	"sort"
	"strings"

	"locind/internal/cdn"
	"locind/internal/netaddr"
)

// The collector-at-a-time Figure 12 path: every address resolved at one
// router through RouteFor, then Aggregateability, which builds the LPM
// table in a label trie to read its size. It was production code (the
// trie and the LPM table in their own package) until
// AggregateabilityPerRouter took over its last caller; the declarations
// below are that code, verbatim but for package qualifiers and Name's
// Labels and Depth methods, now labels and depth, and the oracle the
// per-router count, the device replay and the fused content replay are
// compared against.

// BestPortOf implements best(FIB(R, d, t)): the output port of the
// minimum-cost address, where cost is (AS-path length of the selected
// route, next-hop AS, address) — a deterministic "closest copy first"
// order. The boolean is false when no address has a route.
func BestPortOf(r RouteLookup, addrs []netaddr.Addr) (int, bool) {
	best := -1
	bestLen := 0
	var bestAddr netaddr.Addr
	found := false
	for _, a := range addrs {
		rt, ok := r.RouteFor(a)
		if !ok {
			continue
		}
		l := rt.PathLen()
		if !found ||
			l < bestLen ||
			(l == bestLen && rt.NextHop < best) ||
			(l == bestLen && rt.NextHop == best && a < bestAddr) {
			best, bestLen, bestAddr, found = rt.NextHop, l, a, true
		}
	}
	return best, found
}

// BestPortTable builds the complete name-forwarding table of §3.3.2 under
// best-port forwarding: every name mapped to its single best output port.
// Names whose addresses have no route are omitted.
func BestPortTable(r RouteLookup, sets map[cdn.Name][]netaddr.Addr) map[cdn.Name]int {
	out := make(map[cdn.Name]int, len(sets))
	for n, addrs := range sets {
		if p, ok := BestPortOf(r, addrs); ok {
			out[n] = p
		}
	}
	return out
}

// AggregateabilityBestPort computes the §3.3.2 aggregateability metric (the
// ratio of complete to LPM table size) at router r under best-port
// forwarding — Figure 12's per-collector quantity.
func AggregateabilityBestPort(r RouteLookup, sets map[cdn.Name][]netaddr.Addr) float64 {
	return Aggregateability(BestPortTable(r, sets))
}

// labels splits n into its dot-separated labels, most specific first.
// The empty name has no labels.
func labels(n cdn.Name) []string {
	if n == "" {
		return nil
	}
	return strings.Split(string(n), ".")
}

// depth returns the number of labels in n.
func depth(n cdn.Name) int {
	if n == "" {
		return 0
	}
	return strings.Count(string(n), ".") + 1
}

// Trie is a name trie keyed by label suffixes, the content-routing analogue
// of the netaddr prefix trie: a lookup finds the most specific registered
// ancestor (or exact match) of a name. The zero value is ready to use.
type Trie[V any] struct {
	root *trieNode[V]
}

type trieNode[V any] struct {
	children map[string]*trieNode[V]
	val      V
	set      bool
}

func (t *Trie[V]) ensureRoot() *trieNode[V] {
	if t.root == nil {
		t.root = &trieNode[V]{}
	}
	return t.root
}

// Insert stores v under name n, replacing any existing value; it reports
// whether the name was newly inserted. Inserting the empty name sets a
// default ("root") entry that matches everything.
func (t *Trie[V]) Insert(n cdn.Name, v V) bool {
	node := t.ensureRoot()
	labels := labels(n)
	for i := len(labels) - 1; i >= 0; i-- {
		if node.children == nil {
			node.children = map[string]*trieNode[V]{}
		}
		child := node.children[labels[i]]
		if child == nil {
			child = &trieNode[V]{}
			node.children[labels[i]] = child
		}
		node = child
	}
	fresh := !node.set
	node.val = v
	node.set = true
	return fresh
}

// LookupLongestSuffix finds the most specific stored name that is n itself
// or an ancestor of n — the name-space longest-prefix match.
func (t *Trie[V]) LookupLongestSuffix(n cdn.Name) (cdn.Name, V, bool) {
	var bestV V
	var bestDepth = -1
	if t.root == nil {
		return "", bestV, false
	}
	node := t.root
	labels := labels(n)
	if node.set {
		bestV, bestDepth = node.val, 0
	}
	for i := len(labels) - 1; i >= 0; i-- {
		node = node.children[labels[i]]
		if node == nil {
			break
		}
		if node.set {
			bestV = node.val
			bestDepth = len(labels) - i
		}
	}
	if bestDepth < 0 {
		return "", bestV, false
	}
	match := cdn.Name(strings.Join(labels[len(labels)-bestDepth:], "."))
	return match, bestV, true
}

// BuildLPMTable computes the LPM forwarding table of §3.3.2: the subset of
// the complete table that excludes every subsumed entry. An entry [d1, port]
// is subsumed when the most specific strict ancestor of d1 that survives
// into the LPM table carries the same port, so longest-suffix matching
// resolves d1 correctly without its own entry.
//
// Entries are considered in ancestor-before-descendant order, which makes
// the computation a single pass: each name is kept iff its current
// longest-suffix resolution in the partial table differs from its port.
func BuildLPMTable[V comparable](complete map[cdn.Name]V) map[cdn.Name]V {
	ns := make([]cdn.Name, 0, len(complete))
	for n := range complete {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool {
		di, dj := depth(ns[i]), depth(ns[j])
		if di != dj {
			return di < dj
		}
		return ns[i] < ns[j]
	})
	var trie Trie[V]
	out := make(map[cdn.Name]V)
	for _, n := range ns {
		port := complete[n]
		if _, v, ok := trie.LookupLongestSuffix(n); ok && v == port {
			continue // subsumed
		}
		trie.Insert(n, port)
		out[n] = port
	}
	return out
}

// Aggregateability is the ratio |complete| / |LPM| (§3.3.2). An empty table
// has aggregateability 1 by convention.
func Aggregateability[V comparable](complete map[cdn.Name]V) float64 {
	if len(complete) == 0 {
		return 1
	}
	lpm := BuildLPMTable(complete)
	return float64(len(complete)) / float64(len(lpm))
}
