package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"locind/internal/bgp"
	"locind/internal/cdn"
	"locind/internal/netaddr"
)

// TestAggregateabilityPerRouterTable counts a hand-built table at two
// routers that differ in one prefix. The generator's names are at most two
// labels deep, so this is where the deep cases show: a five-label chain, a
// root entry, an unrouted name with a routed child, next-hop ties in either
// address order, and c.b.a, which router 1 cannot route, so d.c.b.a must
// look past it to b.a there.
func TestAggregateabilityPerRouterTable(t *testing.T) {
	type pl = struct {
		Port int
		Len  int
	}
	shared := map[string]pl{
		"10.0.0.0/16": {Port: 2, Len: 2},
		"20.0.0.0/16": {Port: 5, Len: 3},
		"30.0.0.0/16": {Port: 9, Len: 2},
		"40.0.0.0/16": {Port: 3, Len: 2},
	}
	only0 := map[string]pl{"50.0.0.0/16": {Port: 7, Len: 4}}
	for p, e := range shared {
		only0[p] = e
	}
	r0, r1 := fakeRouterWithLens(only0), fakeRouterWithLens(shared)
	addr := func(a byte) netaddr.Addr { return netaddr.MakeAddr(a, 0, 0, 1) }
	a10, a20, a30, a40, a50, a99 := addr(10), addr(20), addr(30), addr(40), addr(50), addr(99)
	sets := map[cdn.Name][]netaddr.Addr{
		"":          {a40},      // port 3, the root: kept everywhere
		"a":         {a40},      // 3 under the root's 3: subsumed
		"b.a":       {a10},      // 2: kept
		"c.b.a":     {a50},      // 7 at router 0: kept; unrouted at router 1
		"d.c.b.a":   {a10},      // 2 under c.b.a's 7 at router 0: kept; under b.a's 2 at router 1: subsumed
		"e.d.c.b.a": {a20},      // 5 under d.c.b.a's 2: kept
		"x.a":       {a30, a40}, // tie on length, best 3 of 9 and 3: subsumed
		"y.a":       {a40, a30}, // the same tie in the other order: subsumed
		"ghost.a":   {a99},      // unrouted: in neither table
		"z.ghost.a": {a20},      // 5, past ghost.a, under a's 3: kept
		"q.com":     {a10},      // 2 under the root's 3: kept
	}
	want := []float64{10.0 / 7.0, 9.0 / 5.0}
	for _, rs := range []Routers{Each{r0, r1}, bgp.NewFIBSet([]*bgp.FIB{r0, r1})} {
		got := AggregateabilityPerRouter(rs, sets)
		for k, r := range []RouteLookup{r0, r1} {
			if got[k] != want[k] {
				t.Errorf("%T: router %d: %v, want %v", rs, k, got[k], want[k])
			}
			if oracle := AggregateabilityBestPort(r, sets); got[k] != oracle {
				t.Errorf("%T: router %d: %v, trie oracle %v", rs, k, got[k], oracle)
			}
		}
	}
	if got := AggregateabilityPerRouter(Each{r0}, nil); len(got) != 1 || got[0] != 1 {
		t.Errorf("no names: %v, want [1]", got)
	}
}

// TestAggregateabilityPerRouterRandomNames holds the count to the trie path
// on random name trees over labels that include the empty one, whose
// suffixes the trie and a string split could read differently.
func TestAggregateabilityPerRouterRandomNames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	labels := []string{"a", "b", "c", ""}
	for trial := 0; trial < 300; trial++ {
		fibs := make([]*bgp.FIB, 1+rng.Intn(3))
		for k := range fibs {
			var routes []bgp.Route
			for i := 0; i < 4; i++ {
				if rng.Intn(4) == 0 {
					continue // a prefix this router has no route for
				}
				p := netaddr.MakePrefix(netaddr.MakeAddr(byte(10+i), 0, 0, 0), 16)
				port := rng.Intn(3)
				path := make([]int, 1+rng.Intn(3))
				path[0] = port
				routes = append(routes, bgp.Route{Prefix: p, NextHop: port, ASPath: path})
			}
			fibs[k] = bgp.NewRIB(routes).DeriveFIB()
		}
		sets := map[cdn.Name][]netaddr.Addr{}
		for i := rng.Intn(30); i >= 0; i-- {
			parts := make([]string, rng.Intn(5))
			for j := range parts {
				parts[j] = labels[rng.Intn(len(labels))]
			}
			addrs := make([]netaddr.Addr, rng.Intn(4))
			for j := range addrs {
				addrs[j] = netaddr.MakeAddr(byte(10+rng.Intn(4)), 0, 0, byte(rng.Intn(4)))
			}
			sets[cdn.Name(strings.Join(parts, "."))] = addrs
		}
		got := AggregateabilityPerRouter(bgp.NewFIBSet(fibs), sets)
		for k, f := range fibs {
			if oracle := AggregateabilityBestPort(f, sets); got[k] != oracle {
				t.Fatalf("trial %d router %d: %v, trie oracle %v over %s", trial, k, got[k], oracle, fmt.Sprint(sets))
			}
		}
	}
}

// The tests below hold the trie oracle of bestport_oracle_test.go to the
// paper and to brute force.

// TestBuildLPMTablePaperExample replays Figure 3: the entry
// [travel.yahoo.com, 2] is subsumed by [yahoo.com, 2]; sports.yahoo.com
// needs its own entry.
func TestBuildLPMTablePaperExample(t *testing.T) {
	complete := map[cdn.Name]int{
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
	complete := map[cdn.Name]int{
		"a.com":     2,
		"b.a.com":   5,
		"c.b.a.com": 2, // differs from surviving parent b.a.com: must be kept
	}
	lpm := BuildLPMTable(complete)
	if len(lpm) != 3 {
		t.Fatalf("LPM = %v", lpm)
	}
	same := map[cdn.Name]int{"a.com": 2, "b.a.com": 2, "c.b.a.com": 2}
	lpm = BuildLPMTable(same)
	if len(lpm) != 1 {
		t.Fatalf("chain should collapse to 1: %v", lpm)
	}
	if Aggregateability(same) != 3 {
		t.Fatalf("aggregateability = %v", Aggregateability(same))
	}
}

func TestAggregateabilityEmpty(t *testing.T) {
	if Aggregateability(map[cdn.Name]int{}) != 1 {
		t.Fatal("empty table should have aggregateability 1")
	}
}

// resolveWithLPM answers what the LPM table forwards name n to.
func resolveWithLPM(lpm map[cdn.Name]int, n cdn.Name) (int, bool) {
	var trie Trie[int]
	for name, v := range lpm {
		trie.Insert(name, v)
	}
	_, v, ok := trie.LookupLongestSuffix(n)
	return v, ok
}

// Property: BuildLPMTable preserves resolution semantics for every name in
// the complete table, on random hierarchies.
func TestBuildLPMTableSemanticsPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		complete := map[cdn.Name]int{}
		// Random enterprise domains with random subdomain trees.
		for d := 0; d < 20; d++ {
			root := cdn.Name(fmt.Sprintf("ent%d.com", d))
			complete[root] = rng.Intn(4)
			subs := rng.Intn(8)
			for s := 0; s < subs; s++ {
				sub := cdn.Name(fmt.Sprintf("s%d.%s", s, root))
				complete[sub] = rng.Intn(4)
				if rng.Float64() < 0.4 {
					complete["deep."+sub] = rng.Intn(4)
				}
			}
		}
		lpm := BuildLPMTable(complete)
		if len(lpm) > len(complete) {
			t.Fatal("LPM table bigger than complete table")
		}
		for n, want := range complete {
			if got, ok := resolveWithLPM(lpm, n); !ok || got != want {
				t.Fatalf("trial %d: resolution of %q = %d,%v want %d", trial, n, got, ok, want)
			}
		}
	}
}

// TestTrieInsertReplace checks Insert's fresh/replace report and exact-name
// lookup: a stored name is its own longest suffix; an interior node with no
// value, a missing name and an empty trie match nothing.
func TestTrieInsertReplace(t *testing.T) {
	var tr Trie[int]
	if !tr.Insert("yahoo.com", 2) {
		t.Error("first insert should be fresh")
	}
	if tr.Insert("yahoo.com", 3) {
		t.Error("second insert should replace")
	}
	if m, v, ok := tr.LookupLongestSuffix("yahoo.com"); !ok || m != "yahoo.com" || v != 3 {
		t.Errorf("lookup = %q %d %v", m, v, ok)
	}
	if _, _, ok := tr.LookupLongestSuffix("cnn.com"); ok {
		t.Error("missing name should miss")
	}
	if _, _, ok := tr.LookupLongestSuffix("com"); ok {
		t.Error("interior node without value should miss")
	}
	var empty Trie[int]
	if _, _, ok := empty.LookupLongestSuffix("x"); ok {
		t.Error("empty trie lookup should miss")
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

// nameSet generates hierarchical names from a small label alphabet for
// testing/quick, so random tests actually produce ancestor/descendant
// collisions.
type nameSet []cdn.Name

func randName(rng *rand.Rand) cdn.Name {
	labels := []string{"a", "b", "c", "www", "cdn", "static"}
	parts := make([]string, 1+rng.Intn(4))
	for i := range parts {
		parts[i] = labels[rng.Intn(len(labels))]
	}
	return cdn.Name(strings.Join(parts, "."))
}

// Generate implements quick.Generator.
func (nameSet) Generate(rng *rand.Rand, size int) reflect.Value {
	out := make(nameSet, rng.Intn(size+1))
	for i := range out {
		out[i] = randName(rng)
	}
	return reflect.ValueOf(out)
}

// Property: after any insert sequence the trie holds what a map model
// holds (Insert reports each name fresh once, and every stored name is its
// own longest suffix), and LookupLongestSuffix agrees with a brute-force
// longest-ancestor scan.
func TestTrieMatchesMapModel(t *testing.T) {
	f := func(ns nameSet) bool {
		var tr Trie[int]
		model := map[cdn.Name]int{}
		fresh := 0
		for i, n := range ns {
			if tr.Insert(n, i) {
				fresh++
			}
			model[n] = i
		}
		if fresh != len(model) {
			return false
		}
		for n, want := range model {
			if m, got, ok := tr.LookupLongestSuffix(n); !ok || m != n || got != want {
				return false
			}
		}
		// Longest-suffix agreement on fresh probes.
		rng := rand.New(rand.NewSource(int64(len(ns))))
		for probe := 0; probe < 20; probe++ {
			q := randName(rng)
			bestDepth, bestVal, found := -1, 0, false
			for n, v := range model {
				if (n == q || strings.HasSuffix(string(q), "."+string(n))) && depth(n) > bestDepth {
					bestDepth, bestVal, found = depth(n), v, true
				}
			}
			_, got, ok := tr.LookupLongestSuffix(q)
			if ok != found || (ok && got != bestVal) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: BuildLPMTable never grows the table, always preserves
// resolution of every complete-table name, and is idempotent.
func TestBuildLPMTableProperties(t *testing.T) {
	f := func(ns nameSet, ports []uint8) bool {
		complete := map[cdn.Name]int{}
		for i, n := range ns {
			p := 0
			if len(ports) > 0 {
				p = int(ports[i%len(ports)]) % 3
			}
			complete[n] = p
		}
		lpm := BuildLPMTable(complete)
		if len(lpm) > len(complete) {
			return false
		}
		for n, want := range complete {
			if got, ok := resolveWithLPM(lpm, n); !ok || got != want {
				return false
			}
		}
		// Idempotence: compacting the LPM table changes nothing.
		again := BuildLPMTable(lpm)
		return len(again) == len(lpm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
