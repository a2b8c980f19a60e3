package netaddr

import (
	"math/rand"
	"sort"
	"testing"
)

// The prefix-returning reads left production with their last callers. The
// tests that pin the trie's structure through them keep them here, over Get
// and Walk.

// Get returns the value stored for exactly p, with no longest-prefix
// fallback.
func (t *Trie[V]) Get(p Prefix) (V, bool) {
	n, ok := t.find(p)
	if !ok || t.nodes[n].val == 0 {
		var zero V
		return zero, false
	}
	return t.vals[t.nodes[n].val-1], true
}

// trieLongest returns the most specific stored prefix of at most maxBits bits
// covering a — the deepest valued node find reaches along a's bit path;
// maxBits < 0 matches nothing.
func trieLongest[V any](t *Trie[V], a Addr, maxBits int) (Prefix, V, bool) {
	for bits := maxBits; bits >= 0; bits-- {
		p := MakePrefix(a, bits)
		if v, ok := t.Get(p); ok {
			return p, v, true
		}
	}
	var zero V
	return Prefix{}, zero, false
}

// trieLookupPrefix is Lookup that also returns the matching prefix.
func trieLookupPrefix[V any](t *Trie[V], a Addr) (Prefix, V, bool) { return trieLongest(t, a, 32) }

// trieParent returns the longest strict ancestor of p in the trie: what an
// address in p would match if p itself were removed.
func trieParent[V any](t *Trie[V], p Prefix) (Prefix, V, bool) {
	return trieLongest(t, p.Addr(), p.Bits()-1)
}

// triePrefixes returns all stored prefixes in walk order.
func triePrefixes[V any](t *Trie[V]) []Prefix {
	out := make([]Prefix, 0, t.Len())
	t.Walk(func(p Prefix, _ V) bool {
		out = append(out, p)
		return true
	})
	return out
}

// TestTriePaperExample replays the Figure 2 scenario: a router with entries
// for 22.33.44.0/24 (port 5) and 22.33.0.0/16 (port 3). The endpoint at
// 22.33.44.55 matches the /24; after moving to 22.33.88.55 it matches the
// /16; inserting a /32 override restores correct forwarding.
func TestTriePaperExample(t *testing.T) {
	var fib Trie[int]
	fib.Insert(MustParsePrefix("22.33.44.0/24"), 5)
	fib.Insert(MustParsePrefix("22.33.0.0/16"), 3)

	if port, ok := fib.Lookup(MustParseAddr("22.33.44.55")); !ok || port != 5 {
		t.Fatalf("old address port = %d, %v; want 5", port, ok)
	}
	if port, ok := fib.Lookup(MustParseAddr("22.33.88.55")); !ok || port != 3 {
		t.Fatalf("new address port = %d, %v; want 3", port, ok)
	}
	// The displacement: ports differ, so router R installs a /32.
	fib.Insert(MustParsePrefix("22.33.44.55/32"), 3)
	if port, _ := fib.Lookup(MustParseAddr("22.33.44.55")); port != 3 {
		t.Fatalf("after host-route insert, port = %d; want 3", port)
	}
	// Neighbors in the /24 still use port 5.
	if port, _ := fib.Lookup(MustParseAddr("22.33.44.56")); port != 5 {
		t.Fatalf("neighbor port = %d; want 5", port)
	}
}

func TestTrieEmptyLookup(t *testing.T) {
	var tr Trie[string]
	if _, ok := tr.Lookup(MustParseAddr("1.2.3.4")); ok {
		t.Error("lookup in empty trie should miss")
	}
	if _, ok := tr.Get(MustParsePrefix("1.0.0.0/8")); ok {
		t.Error("get in empty trie should miss")
	}
	if tr.Remove(MustParsePrefix("1.0.0.0/8")) {
		t.Error("remove in empty trie should report false")
	}
	if tr.Len() != 0 {
		t.Error("empty trie should have length 0")
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MakePrefix(0, 0), 99)
	if v, ok := tr.Lookup(MustParseAddr("200.100.50.25")); !ok || v != 99 {
		t.Fatalf("default route lookup = %d, %v", v, ok)
	}
	tr.Insert(MustParsePrefix("200.0.0.0/8"), 7)
	if v, _ := tr.Lookup(MustParseAddr("200.100.50.25")); v != 7 {
		t.Fatalf("more specific should win: got %d", v)
	}
	if v, _ := tr.Lookup(MustParseAddr("100.1.1.1")); v != 99 {
		t.Fatalf("default should still match elsewhere: got %d", v)
	}
}

func TestTrieInsertReplace(t *testing.T) {
	var tr Trie[int]
	if !tr.Insert(MustParsePrefix("10.0.0.0/8"), 1) {
		t.Error("first insert should be fresh")
	}
	if tr.Insert(MustParsePrefix("10.0.0.0/8"), 2) {
		t.Error("second insert should replace")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
	if v, _ := tr.Get(MustParsePrefix("10.0.0.0/8")); v != 2 {
		t.Errorf("value = %d, want 2", v)
	}
}

func TestTrieRemove(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 1)
	tr.Insert(MustParsePrefix("10.1.0.0/16"), 2)
	if !tr.Remove(MustParsePrefix("10.1.0.0/16")) {
		t.Fatal("remove should succeed")
	}
	if tr.Remove(MustParsePrefix("10.1.0.0/16")) {
		t.Fatal("double remove should fail")
	}
	if v, _ := tr.Lookup(MustParseAddr("10.1.2.3")); v != 1 {
		t.Fatalf("after removing /16, /8 should match: got %d", v)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}

func TestTrieLookupPrefix(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("22.33.0.0/16"), 3)
	tr.Insert(MustParsePrefix("22.33.44.0/24"), 5)
	p, v, ok := trieLookupPrefix(&tr, MustParseAddr("22.33.44.55"))
	if !ok || v != 5 || p != MustParsePrefix("22.33.44.0/24") {
		t.Fatalf("LookupPrefix = %v, %d, %v", p, v, ok)
	}
	p, v, ok = trieLookupPrefix(&tr, MustParseAddr("22.33.99.1"))
	if !ok || v != 3 || p != MustParsePrefix("22.33.0.0/16") {
		t.Fatalf("LookupPrefix = %v, %d, %v", p, v, ok)
	}
}

func TestTrieParent(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MakePrefix(0, 0), 0)
	tr.Insert(MustParsePrefix("22.33.0.0/16"), 3)
	tr.Insert(MustParsePrefix("22.33.44.0/24"), 5)
	p, v, ok := trieParent(&tr, MustParsePrefix("22.33.44.0/24"))
	if !ok || v != 3 || p != MustParsePrefix("22.33.0.0/16") {
		t.Fatalf("Parent(/24) = %v, %d, %v", p, v, ok)
	}
	p, v, ok = trieParent(&tr, MustParsePrefix("22.33.0.0/16"))
	if !ok || v != 0 || p != MakePrefix(0, 0) {
		t.Fatalf("Parent(/16) = %v, %d, %v", p, v, ok)
	}
	_, _, ok = trieParent(&tr, MakePrefix(0, 0))
	if ok {
		t.Fatal("the default route has no parent")
	}
}

func TestTrieWalkOrder(t *testing.T) {
	var tr Trie[int]
	ps := []string{"10.0.0.0/8", "10.0.0.0/16", "9.0.0.0/8", "10.128.0.0/9", "0.0.0.0/0"}
	for i, s := range ps {
		tr.Insert(MustParsePrefix(s), i)
	}
	var got []Prefix
	tr.Walk(func(p Prefix, _ int) bool {
		got = append(got, p)
		return true
	})
	if len(got) != len(ps) {
		t.Fatalf("walk visited %d, want %d", len(got), len(ps))
	}
	sorted := make([]Prefix, len(got))
	copy(sorted, got)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
	for i := range got {
		if got[i] != sorted[i] {
			t.Fatalf("walk order not sorted: %v", got)
		}
	}
}

func TestTrieWalkEarlyStop(t *testing.T) {
	var tr Trie[int]
	for i := 0; i < 10; i++ {
		tr.Insert(MakePrefix(MakeAddr(byte(i), 0, 0, 0), 8), i)
	}
	count := 0
	tr.Walk(func(Prefix, int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("walk visited %d after early stop, want 3", count)
	}
}

// TestTrieAgainstLinearScan cross-checks LPM against a brute-force reference
// on random tables and random probes.
func TestTrieAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tr Trie[int]
	type entry struct {
		p Prefix
		v int
	}
	var entries []entry
	for i := 0; i < 400; i++ {
		p := MakePrefix(Addr(rng.Uint32()), 8+rng.Intn(25))
		// Skip duplicates so the reference stays unambiguous.
		dup := false
		for _, e := range entries {
			if e.p == p {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		entries = append(entries, entry{p, i})
		tr.Insert(p, i)
	}
	if tr.Len() != len(entries) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(entries))
	}
	lpmRef := func(a Addr) (int, bool) {
		best := -1
		bestLen := -1
		for _, e := range entries {
			if e.p.Contains(a) && e.p.Bits() > bestLen {
				best, bestLen = e.v, e.p.Bits()
			}
		}
		return best, bestLen >= 0
	}
	for i := 0; i < 5000; i++ {
		var a Addr
		if i%2 == 0 && len(entries) > 0 {
			// Half the probes land inside known prefixes.
			e := entries[rng.Intn(len(entries))]
			a = e.p.Nth(uint64(rng.Uint32()))
		} else {
			a = Addr(rng.Uint32())
		}
		want, wantOK := lpmRef(a)
		got, gotOK := tr.Lookup(a)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("Lookup(%v) = %d,%v; want %d,%v", a, got, gotOK, want, wantOK)
		}
	}
}

func TestTriePrefixes(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 1)
	tr.Insert(MustParsePrefix("20.0.0.0/8"), 2)
	ps := triePrefixes(&tr)
	if len(ps) != 2 {
		t.Fatalf("Prefixes len = %d", len(ps))
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var tr Trie[int]
	for i := 0; i < 400000; i++ {
		tr.Insert(MakePrefix(Addr(rng.Uint32()), 8+rng.Intn(17)), i)
	}
	probes := make([]Addr, 1024)
	for i := range probes {
		probes[i] = Addr(rng.Uint32())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(probes[i&1023])
	}
}

func BenchmarkTrieInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	prefixes := make([]Prefix, 4096)
	for i := range prefixes {
		prefixes[i] = MakePrefix(Addr(rng.Uint32()), 8+rng.Intn(17))
	}
	b.ResetTimer()
	var tr Trie[int]
	for i := 0; i < b.N; i++ {
		tr.Insert(prefixes[i&4095], i)
	}
}

func TestTrieGrowPreservesEntries(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("22.33.44.0/24"), 5)
	tr.Grow(100)
	if v, ok := tr.Lookup(MustParseAddr("22.33.44.55")); !ok || v != 5 {
		t.Fatalf("entry lost across Grow: %d, %v", v, ok)
	}
	tr.Insert(MustParsePrefix("22.33.0.0/16"), 3)
	if v, _ := tr.Lookup(MustParseAddr("22.33.88.55")); v != 3 {
		t.Fatalf("post-Grow insert broken: %d", v)
	}
}

// TestTrieRemoveReusesValueSlots flaps 64 prefixes ten thousand times, the
// way intradomain host routes do: with values
// out of line, a Remove that did not hand its slot to the next Insert would
// leave one dead value behind per flap.
func TestTrieRemoveReusesValueSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prefixes := make([]Prefix, 64)
	for i := range prefixes {
		prefixes[i] = MakePrefix(MakeAddr(byte(i), byte(rng.Intn(256)), 0, 0), 16+rng.Intn(9))
	}
	var tr Trie[int]
	live := map[Prefix]int{}
	for i := 0; i < 10000; i++ {
		p := prefixes[rng.Intn(len(prefixes))]
		if _, ok := live[p]; ok {
			tr.Remove(p)
			delete(live, p)
		} else {
			tr.Insert(p, i)
			live[p] = i
		}
	}
	if len(tr.vals) > len(prefixes) {
		t.Fatalf("value table holds %d slots after flapping %d prefixes; removed slots are not reused", len(tr.vals), len(prefixes))
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len() = %d, %d prefixes are live", tr.Len(), len(live))
	}
	for p, v := range live {
		if got, ok := tr.Get(p); !ok || got != v {
			t.Fatalf("Get(%v) = %d, %v; want %d", p, got, ok, v)
		}
	}
	for _, p := range prefixes {
		if _, ok := live[p]; !ok {
			if _, ok := tr.Get(p); ok {
				t.Fatalf("removed prefix %v still answers Get", p)
			}
		}
	}
}

// TestTrieGrowReservesExactly pins what Grow promises bulk builders: room
// for exactly n values, and a node arena that a table shaped like the
// synthesized address plan (a /16 and one /24 per AS) fills without
// regrowing or leaving more than half of it empty.
func TestTrieGrowReservesExactly(t *testing.T) {
	const ases = 792
	var tr Trie[int]
	tr.Grow(2 * ases)
	if cap(tr.vals) != 2*ases {
		t.Fatalf("Grow(%d) reserved %d values", 2*ases, cap(tr.vals))
	}
	reserved := cap(tr.nodes)
	for as := 0; as < ases; as++ {
		tr.Insert(MakePrefix(Addr(uint32(as)<<16), 16), as)
		tr.Insert(MakePrefix(Addr(uint32(as)<<16), 24), as)
	}
	if cap(tr.nodes) != reserved || cap(tr.vals) != 2*ases {
		t.Fatalf("table outgrew its reservation: nodes %d -> %d, values %d -> %d", reserved, cap(tr.nodes), 2*ases, cap(tr.vals))
	}
	if len(tr.nodes)*2 < reserved {
		t.Fatalf("Grow reserved %d nodes for a table that uses %d", reserved, len(tr.nodes))
	}
}
