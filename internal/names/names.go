// Package names models the hierarchical content name space of §3.3.2:
// dot-separated domain names, the strict-subdomain partial order, a trie
// supporting longest-suffix matching (the name-space analogue of IP
// longest-prefix matching), complete vs LPM forwarding tables, and the
// paper's aggregateability metric.
package names

import (
	"sort"
	"strings"
)

// Name is a domain-style hierarchical name such as "travel.yahoo.com". The
// hierarchy runs right to left: "yahoo.com" is the parent of
// "travel.yahoo.com". The empty Name is the root of the hierarchy.
type Name string

// Labels splits n into its dot-separated labels, most specific first.
// The empty name has no labels.
func (n Name) Labels() []string {
	if n == "" {
		return nil
	}
	return strings.Split(string(n), ".")
}

// Depth returns the number of labels in n.
func (n Name) Depth() int {
	if n == "" {
		return 0
	}
	return strings.Count(string(n), ".") + 1
}

// Join prepends label to n: Join("travel", "yahoo.com") = "travel.yahoo.com".
func Join(label string, n Name) Name {
	if n == "" {
		return Name(label)
	}
	return Name(label) + "." + n
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
func (t *Trie[V]) Insert(n Name, v V) bool {
	node := t.ensureRoot()
	labels := n.Labels()
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
func (t *Trie[V]) LookupLongestSuffix(n Name) (Name, V, bool) {
	var bestV V
	var bestDepth = -1
	if t.root == nil {
		return "", bestV, false
	}
	node := t.root
	labels := n.Labels()
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
	match := Name(strings.Join(labels[len(labels)-bestDepth:], "."))
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
func BuildLPMTable[V comparable](complete map[Name]V) map[Name]V {
	ns := make([]Name, 0, len(complete))
	for n := range complete {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool {
		di, dj := ns[i].Depth(), ns[j].Depth()
		if di != dj {
			return di < dj
		}
		return ns[i] < ns[j]
	})
	var trie Trie[V]
	out := make(map[Name]V)
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
func Aggregateability[V comparable](complete map[Name]V) float64 {
	if len(complete) == 0 {
		return 1
	}
	lpm := BuildLPMTable(complete)
	return float64(len(complete)) / float64(len(lpm))
}
