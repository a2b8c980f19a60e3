// Package netaddr provides compact IPv4 address and prefix value types and a
// binary radix trie supporting longest-prefix-match lookup.
//
// The types here are the substrate for every forwarding-table computation in
// the repository: a router's FIB maps Prefix -> port, and the displacement
// methodology of the paper (§3.1) reduces to comparing the LPM results for a
// mobility event's old and new addresses.
package netaddr

import (
	"fmt"
	"strings"
)

// Addr is an IPv4 address stored as a big-endian uint32. The zero value is
// 0.0.0.0.
type Addr uint32

// MakeAddr assembles an Addr from its four dotted-quad octets.
func MakeAddr(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad IPv4 address such as "22.33.44.55": four
// fields of one to three ASCII digits, each at most 255, joined by single
// dots. Nothing else is accepted: no sign, no space. A leading zero is
// decimal, never octal: "010" is 10.
//
//lint:zeroalloc per call on a well-formed address; only an error allocates
func ParseAddr(s string) (Addr, error) {
	if strings.Count(s, ".") != 3 {
		return 0, fmt.Errorf("netaddr: %q is not a dotted-quad IPv4 address", s)
	}
	var v uint32
	for rest, more := s, true; more; {
		var p string
		p, rest, more = strings.Cut(rest, ".")
		n, ok := decimal(p, 255)
		if !ok || len(p) > 3 {
			return 0, fmt.Errorf("netaddr: bad octet %q in %q", p, s)
		}
		v = v<<8 | uint32(n)
	}
	return Addr(v), nil
}

// decimal parses p, one or more ASCII digits, as a decimal number no
// greater than limit.
func decimal(p string, limit int) (int, bool) {
	if p == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(p); i++ {
		c := p[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if n = n*10 + int(c-'0'); n > limit {
			return 0, false
		}
	}
	return n, true
}

// MustParseAddr is ParseAddr that panics on error; for tests and literals.
//
//lint:allow reach the tests of bgp, core, gns, cluster, intradomain, vantage and cmd/gnsd parse their address literals with it, and a helper in each would outweigh it
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Octets returns the four dotted-quad octets of a.
func (a Addr) Octets() (byte, byte, byte, byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// String formats a in dotted-quad notation.
func (a Addr) String() string {
	o1, o2, o3, o4 := a.Octets()
	return fmt.Sprintf("%d.%d.%d.%d", o1, o2, o3, o4)
}

// Bit reports bit i of a, where bit 0 is the most significant bit. It panics
// if i is outside [0, 31].
func (a Addr) Bit(i int) byte {
	if i < 0 || i > 31 {
		panic("netaddr: bit index out of range")
	}
	return byte(uint32(a) >> (31 - i) & 1)
}

// Prefix is an IPv4 CIDR prefix: an address and a mask length in [0, 32].
// Bits of Addr below the mask are kept canonical (zeroed) by the
// constructors.
type Prefix struct {
	addr Addr
	bits uint8
}

// MakePrefix constructs the canonical prefix addr/bits, zeroing host bits.
// It panics if bits is outside [0, 32].
func MakePrefix(addr Addr, bits int) Prefix {
	if bits < 0 || bits > 32 {
		panic("netaddr: prefix length out of range")
	}
	return Prefix{addr: addr & mask(bits), bits: uint8(bits)}
}

// ParsePrefix parses CIDR notation such as "22.33.44.0/24". A bare address is
// treated as a /32. The length is ASCII digits only, at most 32; leading
// zeros are decimal, as in ParseAddr.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		a, err := ParseAddr(s)
		if err != nil {
			return Prefix{}, err
		}
		return MakePrefix(a, 32), nil
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, ok := decimal(s[slash+1:], 32)
	if !ok {
		return Prefix{}, fmt.Errorf("netaddr: bad prefix length in %q", s)
	}
	return MakePrefix(a, bits), nil
}

// MustParsePrefix is ParsePrefix that panics on error.
//
//lint:allow reach the tests of bgp and core build their FIBs from prefix literals with it (fakeRouter, the FIB fixtures), and a helper in each would outweigh it
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func mask(bits int) Addr {
	if bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - bits))
}

// Addr returns the canonical (host-bits-zero) network address of p.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the mask length of p.
func (p Prefix) Bits() int { return int(p.bits) }

// Contains reports whether a lies inside p.
func (p Prefix) Contains(a Addr) bool {
	return a&mask(int(p.bits)) == p.addr
}

// String formats p in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.addr, p.bits)
}

// NumAddrs returns the number of addresses covered by p as a uint64 (so a /0
// does not overflow).
func (p Prefix) NumAddrs() uint64 {
	return uint64(1) << (32 - p.bits)
}

// Nth returns the i-th address of p, wrapping around within the prefix. This
// gives generators a cheap way to pick deterministic host addresses.
func (p Prefix) Nth(i uint64) Addr {
	return p.addr + Addr(i%p.NumAddrs())
}

// Compare orders prefixes first by network address, then by length (shorter
// first). It returns -1, 0, or +1. Trie.Walk visits prefixes in this order.
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.addr < q.addr:
		return -1
	case p.addr > q.addr:
		return 1
	case p.bits < q.bits:
		return -1
	case p.bits > q.bits:
		return 1
	}
	return 0
}
