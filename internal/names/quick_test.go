package names

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// randName draws hierarchical names from a small label alphabet so random
// tests actually produce ancestor/descendant collisions.
func randName(rng *rand.Rand) Name {
	labels := []string{"a", "b", "c", "www", "cdn", "static"}
	depth := 1 + rng.Intn(4)
	parts := make([]string, depth)
	for i := range parts {
		parts[i] = labels[rng.Intn(len(labels))]
	}
	return Name(strings.Join(parts, "."))
}

// nameSet generates reflect-based random values for testing/quick.
type nameSet []Name

// Generate implements quick.Generator.
func (nameSet) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(size + 1)
	out := make(nameSet, n)
	for i := range out {
		out[i] = randName(rng)
	}
	return reflect.ValueOf(out)
}

// Property: the trie agrees with a map model for Get/Len after any insert
// sequence, and LookupLongestSuffix agrees with a brute-force longest-
// ancestor scan.
func TestTrieMatchesMapModel(t *testing.T) {
	f := func(ns nameSet) bool {
		var tr Trie[int]
		model := map[Name]int{}
		for i, n := range ns {
			tr.Insert(n, i)
			model[n] = i
		}
		if tr.Len() != len(model) {
			return false
		}
		for n, want := range model {
			if got, ok := tr.Get(n); !ok || got != want {
				return false
			}
		}
		// Longest-suffix agreement on fresh probes.
		rng := rand.New(rand.NewSource(int64(len(ns))))
		for probe := 0; probe < 20; probe++ {
			q := randName(rng)
			bestDepth := -1
			bestVal := 0
			found := false
			for n, v := range model {
				if n == q || q.IsStrictSubdomainOf(n) {
					if n.Depth() > bestDepth {
						bestDepth, bestVal, found = n.Depth(), v, true
					}
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
		complete := map[Name]int{}
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
			if got, ok := ResolveWithLPM(lpm, n); !ok || got != want {
				return false
			}
		}
		// Idempotence: compacting the LPM table changes nothing.
		again := BuildLPMTable(lpm)
		if len(again) != len(lpm) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: IsStrictSubdomainOf is a strict partial order on random names:
// irreflexive, antisymmetric, transitive.
func TestSubdomainPartialOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randName(rng), randName(rng), randName(rng)
		if a.IsStrictSubdomainOf(a) {
			return false
		}
		if a.IsStrictSubdomainOf(b) && b.IsStrictSubdomainOf(a) {
			return false
		}
		if a.IsStrictSubdomainOf(b) && b.IsStrictSubdomainOf(c) && !a.IsStrictSubdomainOf(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
