package netaddr

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// prefixList generates random prefix sets biased toward shared high bits so
// ancestor/descendant structure actually occurs.
type prefixList []Prefix

// Generate implements quick.Generator.
func (prefixList) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(size + 1)
	out := make(prefixList, n)
	for i := range out {
		// Cluster addresses into a few /8s so longest-prefix chains form.
		addr := Addr(uint32(rng.Intn(4))<<24 | rng.Uint32()&0x00FFFFFF)
		out[i] = MakePrefix(addr, 4+rng.Intn(29))
	}
	return reflect.ValueOf(out)
}

// Property: after any insert sequence, the trie agrees with a brute-force
// model on Len, Get, and longest-prefix lookups; removal restores the
// shadowed ancestor.
func TestTrieQuickModel(t *testing.T) {
	f := func(ps prefixList) bool {
		var tr Trie[int]
		model := map[Prefix]int{}
		for i, p := range ps {
			tr.Insert(p, i)
			model[p] = i
		}
		if tr.Len() != len(model) {
			return false
		}
		lpm := func(a Addr) (int, bool) {
			best, bestLen, ok := 0, -1, false
			for p, v := range model {
				if p.Contains(a) && p.Bits() > bestLen {
					best, bestLen, ok = v, p.Bits(), true
				}
			}
			return best, ok
		}
		rng := rand.New(rand.NewSource(int64(len(ps) + 1)))
		for probe := 0; probe < 30; probe++ {
			var a Addr
			if len(ps) > 0 && probe%2 == 0 {
				a = ps[rng.Intn(len(ps))].Nth(uint64(rng.Uint32()))
			} else {
				a = Addr(rng.Uint32())
			}
			wantV, wantOK := lpm(a)
			gotV, gotOK := tr.Lookup(a)
			if wantOK != gotOK || (wantOK && wantV != gotV) {
				return false
			}
		}
		// Remove a random present prefix: lookups must fall back to the
		// model without it.
		if len(model) > 0 {
			var victim Prefix
			for p := range model {
				victim = p
				break
			}
			tr.Remove(victim)
			delete(model, victim)
			probeAddr := victim.Nth(3)
			wantV, wantOK := lpm(probeAddr)
			gotV, gotOK := tr.Lookup(probeAddr)
			if wantOK != gotOK || (wantOK && wantV != gotV) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: containment laws. ContainsPrefix is reflexive and transitive;
// p.Contains(a) iff p.ContainsPrefix(a/32); Overlaps is symmetric.
func TestPrefixContainmentLaws(t *testing.T) {
	f := func(rawA, rawB, rawC uint32, la, lb, lc uint8) bool {
		a := MakePrefix(Addr(rawA), int(la%33))
		b := MakePrefix(Addr(rawB), int(lb%33))
		c := MakePrefix(Addr(rawC), int(lc%33))
		if !a.ContainsPrefix(a) {
			return false
		}
		if a.ContainsPrefix(b) && b.ContainsPrefix(c) && !a.ContainsPrefix(c) {
			return false
		}
		if a.Overlaps(b) != b.Overlaps(a) {
			return false
		}
		addr := Addr(rawB)
		if a.Contains(addr) != a.ContainsPrefix(MakePrefix(addr, 32)) {
			return false
		}
		// First/Last bracket every Nth address.
		x := a.Nth(uint64(rawC))
		if x < a.First() || x > a.Last() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is a total order consistent with equality.
func TestPrefixCompareLaws(t *testing.T) {
	f := func(ra, rb uint32, la, lb uint8) bool {
		a := MakePrefix(Addr(ra), int(la%33))
		b := MakePrefix(Addr(rb), int(lb%33))
		switch a.Compare(b) {
		case 0:
			return a == b && b.Compare(a) == 0
		case -1:
			return b.Compare(a) == 1
		case 1:
			return b.Compare(a) == -1
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// The containment checkers the laws above are stated in: they judge Contains
// and Nth from outside, and no binary needs them.

// ContainsPrefix reports whether q is fully contained in (or equal to) p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.bits >= p.bits && q.addr&mask(int(p.bits)) == p.addr
}

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.ContainsPrefix(q) || q.ContainsPrefix(p)
}

// First returns the lowest address in p (the network address).
func (p Prefix) First() Addr { return p.addr }

// Last returns the highest address in p (the broadcast address for IPv4
// subnets; we treat it as an ordinary address).
func (p Prefix) Last() Addr {
	return p.addr | ^mask(int(p.bits))
}
