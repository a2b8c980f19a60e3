package names

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestNameBasics(t *testing.T) {
	n := Name("travel.yahoo.com")
	if n.Depth() != 3 {
		t.Errorf("Depth = %d", n.Depth())
	}
	if got := n.Labels(); len(got) != 3 || got[0] != "travel" || got[2] != "com" {
		t.Errorf("Labels = %v", got)
	}
	if Name("").Depth() != 0 || Name("").Labels() != nil {
		t.Error("empty name basics wrong")
	}
	if Join("travel", "yahoo.com") != "travel.yahoo.com" || Join("com", "") != "com" {
		t.Error("Join wrong")
	}
}

func TestIsStrictSubdomainOf(t *testing.T) {
	cases := []struct {
		a, b Name
		want bool
	}{
		{"travel.yahoo.com", "yahoo.com", true},
		{"a.travel.yahoo.com", "yahoo.com", true},
		{"yahoo.com", "yahoo.com", false},
		{"yahoo.com", "travel.yahoo.com", false},
		{"myyahoo.com", "yahoo.com", false}, // label boundary matters
		{"yahoo.com", "com", true},
		{"anything.example", "", true},
		{"", "", false},
	}
	for _, c := range cases {
		if got := c.a.IsStrictSubdomainOf(c.b); got != c.want {
			t.Errorf("%q ≺ %q = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTrieInsertGetRemove(t *testing.T) {
	var tr Trie[int]
	if !tr.Insert("yahoo.com", 2) {
		t.Error("first insert should be fresh")
	}
	if tr.Insert("yahoo.com", 3) {
		t.Error("second insert should replace")
	}
	if v, ok := tr.Get("yahoo.com"); !ok || v != 3 {
		t.Errorf("Get = %d %v", v, ok)
	}
	if _, ok := tr.Get("cnn.com"); ok {
		t.Error("missing name should miss")
	}
	if _, ok := tr.Get("com"); ok {
		t.Error("interior node without value should miss")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
	var empty Trie[int]
	if _, ok := empty.Get("x"); ok {
		t.Error("empty trie Get should miss")
	}
}

func TestTrieLongestSuffix(t *testing.T) {
	var tr Trie[int]
	tr.Insert("yahoo.com", 2)
	tr.Insert("sports.yahoo.com", 5)
	name, v, ok := tr.LookupLongestSuffix("scores.sports.yahoo.com")
	if !ok || v != 5 || name != "sports.yahoo.com" {
		t.Fatalf("lookup = %q %d %v", name, v, ok)
	}
	name, v, ok = tr.LookupLongestSuffix("travel.yahoo.com")
	if !ok || v != 2 || name != "yahoo.com" {
		t.Fatalf("lookup = %q %d %v", name, v, ok)
	}
	if _, _, ok := tr.LookupLongestSuffix("cnn.com"); ok {
		t.Fatal("unrelated name should miss")
	}
	// Root (default) entry matches everything.
	tr.Insert("", 9)
	if _, v, ok := tr.LookupLongestSuffix("cnn.com"); !ok || v != 9 {
		t.Fatalf("root entry lookup = %d %v", v, ok)
	}
	var empty Trie[int]
	if _, _, ok := empty.LookupLongestSuffix("x.y"); ok {
		t.Fatal("empty trie suffix lookup should miss")
	}
}

func TestTrieWalk(t *testing.T) {
	var tr Trie[int]
	namesIn := []Name{"yahoo.com", "cnn.com", "mit.edu", "travel.yahoo.com"}
	for i, n := range namesIn {
		tr.Insert(n, i)
	}
	var visited []Name
	tr.Walk(func(n Name, _ int) bool {
		visited = append(visited, n)
		return true
	})
	if len(visited) != len(namesIn) {
		t.Fatalf("walk visited %v", visited)
	}
	// Early stop.
	count := 0
	tr.Walk(func(Name, int) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
	var empty Trie[int]
	empty.Walk(func(Name, int) bool { t.Fatal("empty walk visited"); return false })
}

// TestBuildLPMTablePaperExample replays Figure 3: the entry
// [travel.yahoo.com, 2] is subsumed by [yahoo.com, 2]; sports.yahoo.com
// needs its own entry.
func TestBuildLPMTablePaperExample(t *testing.T) {
	complete := map[Name]int{
		"yahoo.com":        2,
		"travel.yahoo.com": 2,
		"sports.yahoo.com": 5,
		"cnn.com":          2,
		"mit.edu":          4,
	}
	lpm := BuildLPMTable(complete)
	if len(lpm) != 4 {
		t.Fatalf("LPM size = %d, want 4: %v", len(lpm), lpm)
	}
	if _, ok := lpm["travel.yahoo.com"]; ok {
		t.Fatal("travel.yahoo.com should be subsumed")
	}
	if lpm["sports.yahoo.com"] != 5 {
		t.Fatal("sports.yahoo.com must survive")
	}
	got := Aggregateability(complete)
	if got != 5.0/4.0 {
		t.Fatalf("aggregateability = %v, want 1.25", got)
	}
}

func TestBuildLPMTableDeepChains(t *testing.T) {
	complete := map[Name]int{
		"a.com":     2,
		"b.a.com":   5,
		"c.b.a.com": 2, // differs from surviving parent b.a.com: must be kept
	}
	lpm := BuildLPMTable(complete)
	if len(lpm) != 3 {
		t.Fatalf("LPM = %v", lpm)
	}
	same := map[Name]int{"a.com": 2, "b.a.com": 2, "c.b.a.com": 2}
	lpm = BuildLPMTable(same)
	if len(lpm) != 1 {
		t.Fatalf("chain should collapse to 1: %v", lpm)
	}
	if Aggregateability(same) != 3 {
		t.Fatalf("aggregateability = %v", Aggregateability(same))
	}
}

func TestAggregateabilityEmpty(t *testing.T) {
	if Aggregateability(map[Name]int{}) != 1 {
		t.Fatal("empty table should have aggregateability 1")
	}
}

// Property: BuildLPMTable preserves resolution semantics for every name in
// the complete table, on random hierarchies.
func TestBuildLPMTableSemanticsPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		complete := map[Name]int{}
		// Random enterprise domains with random subdomain trees.
		for d := 0; d < 20; d++ {
			root := Name(fmt.Sprintf("ent%d.com", d))
			complete[root] = rng.Intn(4)
			subs := rng.Intn(8)
			for s := 0; s < subs; s++ {
				sub := Join(fmt.Sprintf("s%d", s), root)
				complete[sub] = rng.Intn(4)
				if rng.Float64() < 0.4 {
					complete[Join("deep", sub)] = rng.Intn(4)
				}
			}
		}
		lpm := BuildLPMTable(complete)
		if len(lpm) > len(complete) {
			t.Fatal("LPM table bigger than complete table")
		}
		for n, want := range complete {
			got, ok := ResolveWithLPM(lpm, n)
			if !ok || got != want {
				t.Fatalf("trial %d: resolution of %q = %d,%v want %d", trial, n, got, ok, want)
			}
		}
	}
}

func BenchmarkBuildLPMTable(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	complete := map[Name]int{}
	for d := 0; d < 500; d++ {
		root := Name(fmt.Sprintf("dom%d.com", d))
		complete[root] = rng.Intn(8)
		for s := 0; s < 24; s++ {
			complete[Join(fmt.Sprintf("s%d", s), root)] = rng.Intn(8)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildLPMTable(complete)
	}
}

func BenchmarkTrieLookupLongestSuffix(b *testing.B) {
	var tr Trie[int]
	for d := 0; d < 10000; d++ {
		tr.Insert(Name(fmt.Sprintf("d%d.example.com", d)), d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.LookupLongestSuffix("x.d1234.example.com")
	}
}

// The checkers below judge the trie and BuildLPMTable from outside the code
// under test; no binary needs them, so they live here.

// IsStrictSubdomainOf reports the paper's d1 ≺ d2 relation:
// "travel.yahoo.com" ≺ "yahoo.com". A name is not a strict subdomain of
// itself. Every non-empty name is a strict subdomain of the root.
func (n Name) IsStrictSubdomainOf(m Name) bool {
	if n == m {
		return false
	}
	if m == "" {
		return n != ""
	}
	return strings.HasSuffix(string(n), "."+string(m))
}

// Get returns the value stored for exactly n.
func (t *Trie[V]) Get(n Name) (V, bool) {
	var zero V
	if t.root == nil {
		return zero, false
	}
	node := t.root
	labels := n.Labels()
	for i := len(labels) - 1; i >= 0; i-- {
		node = node.children[labels[i]]
		if node == nil {
			return zero, false
		}
	}
	if !node.set {
		return zero, false
	}
	return node.val, true
}

// ResolveWithLPM answers what the LPM table forwards name n to; used by
// tests to verify that BuildLPMTable is semantics-preserving.
func ResolveWithLPM[V comparable](lpm map[Name]V, n Name) (V, bool) {
	var trie Trie[V]
	for name, v := range lpm {
		trie.Insert(name, v)
	}
	_, v, ok := trie.LookupLongestSuffix(n)
	return v, ok
}

// Len returns the number of names stored.
func (t *Trie[V]) Len() int {
	n := 0
	t.Walk(func(Name, V) bool { n++; return true })
	return n
}

// Walk visits all stored names in depth-first lexicographic label order.
// Returning false stops the walk.
func (t *Trie[V]) Walk(fn func(Name, V) bool) {
	if t.root == nil {
		return
	}
	t.walk(t.root, "", fn)
}

func (t *Trie[V]) walk(node *trieNode[V], suffix Name, fn func(Name, V) bool) bool {
	if node.set {
		if !fn(suffix, node.val) {
			return false
		}
	}
	labels := make([]string, 0, len(node.children))
	for l := range node.children {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		if !t.walk(node.children[l], Join(l, suffix), fn) {
			return false
		}
	}
	return true
}
