package netaddr

import (
	"net/netip"
	"sort"
	"testing"
)

// FuzzParseAddr holds ParseAddr to net/netip's IPv4 parser. On input with
// no leading zero (which netip refuses and ParseAddr reads as decimal) the
// two accept exactly the same strings with the same value, and such input
// is already canonical: String gives it back. Whatever ParseAddr accepts,
// leading zeros included, reparses from String to the same address.
func FuzzParseAddr(f *testing.F) {
	for _, s := range []string{
		"22.33.44.55", "0.0.0.0", "255.255.255.255", "1.2.3.256", "1.2.3",
		"1.2.3.4.5", "1..2.3", "+1.2.3.4", "1.2.3.-0", "010.0.0.1", "1.2.3.4%eth0",
		"::ffff:1.2.3.4", "::1", "1.2.3.0x1", " 1.2.3.4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAddr(s)
		if err == nil {
			if back, err := ParseAddr(a.String()); err != nil || back != a {
				t.Fatalf("ParseAddr(%q) = %v, which reparses as %v, %v", s, a, back, err)
			}
		}
		if hasLeadingZero(s) {
			return
		}
		ip, nerr := netip.ParseAddr(s)
		want := nerr == nil && ip.Is4()
		if (err == nil) != want {
			t.Fatalf("ParseAddr(%q) error %v; netip.ParseAddr gives %v, %v", s, err, ip, nerr)
		}
		if !want {
			return
		}
		if b := ip.As4(); a != MakeAddr(b[0], b[1], b[2], b[3]) {
			t.Fatalf("ParseAddr(%q) = %v, netip reads %v", s, a, ip)
		}
		if a.String() != s {
			t.Fatalf("ParseAddr(%q) = %v: canonical input does not round-trip", s, a)
		}
	})
}

// hasLeadingZero reports whether some dot-separated field of s starts with
// a zero followed by another digit.
func hasLeadingZero(s string) bool {
	for i := 0; i+1 < len(s); i++ {
		if s[i] == '0' && (i == 0 || s[i-1] == '.') && '0' <= s[i+1] && s[i+1] <= '9' {
			return true
		}
	}
	return false
}

// FuzzLPMLookup drives the radix trie with an arbitrary insert/remove/grow
// script and cross-checks every lookup against a naive linear scan over a
// reference map, and the walk against the sorted reference: the trie must
// agree with the definition of longest-prefix match, and visit exactly its
// prefixes in order, on every script the fuzzer invents.
//
// Script encoding: each 5-byte chunk is one operation — four address
// octets, then a control byte whose value mod 33 is the prefix length and
// whose high bit selects remove instead of insert. A control byte with bit
// 0x40 set and the high bit clear is instead Grow by the first octet: it
// must change nothing observable, whatever slots Remove has freed.
func FuzzLPMLookup(f *testing.F) {
	// One default route, nested /8 /24 /32 around one address, a removal.
	f.Add([]byte{
		0, 0, 0, 0, 0,
		22, 0, 0, 0, 8,
		22, 33, 44, 0, 24,
		22, 33, 44, 55, 32,
		22, 33, 44, 0, 24 | 0x80,
	})
	// Sibling /25s and a query-heavy tail.
	f.Add([]byte{
		10, 0, 0, 0, 25,
		10, 0, 0, 128, 25,
		10, 0, 0, 0, 8,
		10, 0, 0, 129, 32,
	})
	// testdata/fuzz/FuzzLPMLookup holds the seeds for the value table: a
	// freed slot reused under a different prefix, with Grow re-cutting the
	// table while the slot is free.
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Trie[int]
		ref := map[Prefix]int{}
		var queries []Addr
		for i := 0; i+5 <= len(data); i += 5 {
			a := MakeAddr(data[i], data[i+1], data[i+2], data[i+3])
			ctl := data[i+4]
			p := MakePrefix(a, int(ctl%33))
			queries = append(queries, a)
			if ctl&0xC0 == 0x40 {
				tr.Grow(int(data[i]))
				continue
			}
			if ctl&0x80 != 0 {
				_, present := ref[p]
				if removed := tr.Remove(p); removed != present {
					t.Fatalf("Remove(%v) = %v, reference had it: %v", p, removed, present)
				}
				delete(ref, p)
			} else {
				_, present := ref[p]
				if fresh := tr.Insert(p, i); fresh == present {
					t.Fatalf("Insert(%v) fresh = %v, reference had it: %v", p, fresh, present)
				}
				ref[p] = i
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("Len() = %d, reference holds %d prefixes", tr.Len(), len(ref))
		}
		for p, v := range ref {
			if got, ok := tr.Get(p); !ok || got != v {
				t.Fatalf("Get(%v) = %d, %v; reference holds %d", p, got, ok, v)
			}
		}
		sorted := make([]Prefix, 0, len(ref))
		for p := range ref {
			sorted = append(sorted, p)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
		visited := 0
		tr.Walk(func(p Prefix, v int) bool {
			if visited >= len(sorted) || p != sorted[visited] || v != ref[p] {
				t.Fatalf("Walk visit %d = %v, %d; sorted reference holds %v", visited, p, v, sorted)
			}
			visited++
			return true
		})
		if visited != len(sorted) {
			t.Fatalf("Walk visited %d prefixes, reference holds %d", visited, len(sorted))
		}
		queries = append(queries, 0, 1<<31, ^Addr(0))
		for _, q := range queries {
			wantP, wantV, wantOK := naiveLPM(ref, q)
			gotP, gotV, gotOK := trieLookupPrefix(&tr, q)
			if gotOK != wantOK || gotP != wantP || gotV != wantV {
				t.Fatalf("LookupPrefix(%v) = %v, %d, %v; naive scan says %v, %d, %v",
					q, gotP, gotV, gotOK, wantP, wantV, wantOK)
			}
			v, ok := tr.Lookup(q)
			if ok != wantOK || v != wantV {
				t.Fatalf("Lookup(%v) = %d, %v; naive scan says %d, %v", q, v, ok, wantV, wantOK)
			}
		}
	})
}

// naiveLPM is the specification: the longest (most-specific) reference
// prefix containing a. At most one prefix of each length can contain a, so
// map iteration order cannot affect the result.
func naiveLPM(ref map[Prefix]int, a Addr) (Prefix, int, bool) {
	var bestP Prefix
	bestV := 0
	found := false
	for p, v := range ref {
		if p.Contains(a) && (!found || p.Bits() > bestP.Bits()) {
			bestP, bestV, found = p, v, true
		}
	}
	return bestP, bestV, found
}
