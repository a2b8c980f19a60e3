package netaddr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", Addr(0xFFFFFFFF), true},
		{"22.33.44.55", MakeAddr(22, 33, 44, 55), true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"1.2.3.256", 0, false},
		{"1.2.3.-1", 0, false},
		{"a.b.c.d", 0, false},
		{"", 0, false},
		{"1..2.3", 0, false},
		{"1.2.3.1234", 0, false},
		// Digits only: strconv.Atoi's sign is not part of an octet.
		{"+1.2.3.4", 0, false},
		{"1.2.3.-0", 0, false},
		{"1.2.3.+4", 0, false},
		{" 1.2.3.4", 0, false},
		{"1.2.3.4 ", 0, false},
		{"1.2.3.4.", 0, false},
		{".1.2.3.4", 0, false},
		{"1.2.3.0x1", 0, false},
		{"1.2.3.0001", 0, false},
		// A leading zero is decimal, never octal.
		{"010.0.0.1", MakeAddr(10, 0, 0, 1), true},
		{"1.2.3.00", MakeAddr(1, 2, 3, 0), true},
		{"001.002.003.255", MakeAddr(1, 2, 3, 255), true},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseAddr(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrBit(t *testing.T) {
	a := MustParseAddr("128.0.0.1")
	if a.Bit(0) != 1 {
		t.Errorf("Bit(0) = %d, want 1", a.Bit(0))
	}
	if a.Bit(1) != 0 {
		t.Errorf("Bit(1) = %d, want 0", a.Bit(1))
	}
	if a.Bit(31) != 1 {
		t.Errorf("Bit(31) = %d, want 1", a.Bit(31))
	}
}

func TestAddrBitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bit(32) did not panic")
		}
	}()
	_ = Addr(0).Bit(32)
}

func TestParsePrefix(t *testing.T) {
	p := MustParsePrefix("22.33.44.0/24")
	if p.Bits() != 24 {
		t.Errorf("Bits = %d, want 24", p.Bits())
	}
	if p.Addr() != MakeAddr(22, 33, 44, 0) {
		t.Errorf("Addr = %v", p.Addr())
	}
	// Host bits must be canonicalized away.
	q := MustParsePrefix("22.33.44.55/24")
	if q != p {
		t.Errorf("canonicalization failed: %v != %v", q, p)
	}
	// Bare address becomes /32.
	r := MustParsePrefix("1.2.3.4")
	if r.Bits() != 32 {
		t.Errorf("bare address Bits = %d, want 32", r.Bits())
	}
	for _, bad := range []string{
		"1.2.3.0/33", "1.2.3.0/-1", "1.2.3.0/x", "x/24",
		"1.2.3.0/+24", "1.2.3.0/-0", "+1.2.3.0/24", "1.2.3.0/", "1.2.3.0/ 24", "1.2.3.0/24/8",
	} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", bad)
		}
	}
	// Leading zeros in the length are decimal too.
	if p := MustParsePrefix("10.0.0.0/008"); p.Bits() != 8 {
		t.Errorf("ParsePrefix(10.0.0.0/008) Bits = %d, want 8", p.Bits())
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("22.33.44.0/24")
	if !p.Contains(MustParseAddr("22.33.44.55")) {
		t.Error("should contain 22.33.44.55")
	}
	if p.Contains(MustParseAddr("22.33.45.0")) {
		t.Error("should not contain 22.33.45.0")
	}
	all := MakePrefix(0, 0)
	if !all.Contains(MustParseAddr("200.1.2.3")) {
		t.Error("/0 should contain everything")
	}
}

func TestPrefixContainsPrefix(t *testing.T) {
	p16 := MustParsePrefix("22.33.0.0/16")
	p24 := MustParsePrefix("22.33.44.0/24")
	other := MustParsePrefix("22.34.0.0/16")
	if !p16.ContainsPrefix(p24) {
		t.Error("/16 should contain /24")
	}
	if p24.ContainsPrefix(p16) {
		t.Error("/24 should not contain /16")
	}
	if !p16.ContainsPrefix(p16) {
		t.Error("prefix should contain itself")
	}
	if p16.ContainsPrefix(other) || other.ContainsPrefix(p16) {
		t.Error("siblings should not contain each other")
	}
	if !p16.Overlaps(p24) || p16.Overlaps(other) {
		t.Error("Overlaps wrong")
	}
}

func TestPrefixFirstLastNum(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/30")
	if p.First() != MustParseAddr("10.0.0.0") {
		t.Errorf("First = %v", p.First())
	}
	if p.Last() != MustParseAddr("10.0.0.3") {
		t.Errorf("Last = %v", p.Last())
	}
	if p.NumAddrs() != 4 {
		t.Errorf("NumAddrs = %d", p.NumAddrs())
	}
	if MakePrefix(0, 0).NumAddrs() != 1<<32 {
		t.Errorf("/0 NumAddrs = %d", MakePrefix(0, 0).NumAddrs())
	}
	if p.Nth(5) != MustParseAddr("10.0.0.1") {
		t.Errorf("Nth wraps wrong: %v", p.Nth(5))
	}
}

func TestPrefixCompare(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.0.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Error("shorter prefix should sort first at same address")
	}
	if a.Compare(c) != -1 || c.Compare(a) != 1 {
		t.Error("lower address should sort first")
	}
	if a.Compare(a) != 0 {
		t.Error("self-compare should be 0")
	}
}

func TestPrefixStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := MakePrefix(Addr(rng.Uint32()), rng.Intn(33))
		back, err := ParsePrefix(p.String())
		if err != nil || back != p {
			t.Fatalf("round trip failed for %v: %v %v", p, back, err)
		}
	}
}
