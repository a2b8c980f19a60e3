package cluster

import "testing"

func TestVVCompare(t *testing.T) {
	var empty VV
	a := empty.Bump(1) // {1:1}
	a2 := a.Bump(1)    // {1:2}
	b := empty.Bump(2) // {2:1}
	ab := a.Merge(b)   // {1:1, 2:1}
	cases := []struct {
		name string
		x, y VV
		want Ordering
	}{
		{"empty-empty", empty, empty, Equal},
		{"empty-before", empty, a, Before},
		{"after-empty", a, empty, After},
		{"self", a, a, Equal},
		{"prefix", a, a2, Before},
		{"extends", a2, a, After},
		{"concurrent", a, b, Concurrent},
		{"join-after-both", ab, a, After},
		{"join-after-both-2", ab, b, After},
		{"concurrent-partial", a2, ab, Concurrent},
	}
	for _, c := range cases {
		if got := c.x.Compare(c.y); got != c.want {
			t.Errorf("%s: Compare=%v, want %v", c.name, got, c.want)
		}
	}
}

func TestVVBumpCopies(t *testing.T) {
	a := VV{}.Bump(5)
	b := a.Bump(5)
	if a.Get(5) != 1 || b.Get(5) != 2 {
		t.Fatalf("bump aliased: a=%v b=%v", a, b)
	}
	c := a.Bump(3)
	if len(c) != 2 || c[0].Origin != 3 {
		t.Fatalf("bump of new origin should insert sorted: %v", c)
	}
}

func TestVVMergeIsJoin(t *testing.T) {
	a := VV{{Origin: 1, Ctr: 3}, {Origin: 2, Ctr: 1}}
	b := VV{{Origin: 2, Ctr: 4}, {Origin: 7, Ctr: 1}}
	m := a.Merge(b)
	want := VV{{Origin: 1, Ctr: 3}, {Origin: 2, Ctr: 4}, {Origin: 7, Ctr: 1}}
	if m.Encode() != want.Encode() {
		t.Fatalf("merge=%s, want %s", m.Encode(), want.Encode())
	}
	if m.Compare(a) != After || m.Compare(b) != After {
		t.Fatal("merge should dominate both inputs")
	}
	if m2 := b.Merge(a); m2.Encode() != m.Encode() {
		t.Fatalf("merge not commutative: %s vs %s", m2.Encode(), m.Encode())
	}
}

// BenchmarkVVMerge joins two diverged three-writer histories, the shape a
// concurrent put or a repair round merges.
func BenchmarkVVMerge(b *testing.B) {
	x := VV{{Origin: 1, Ctr: 9}, {Origin: 4, Ctr: 2}, {Origin: 7, Ctr: 5}}
	y := VV{{Origin: 2, Ctr: 3}, {Origin: 4, Ctr: 6}, {Origin: 9, Ctr: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m := x.Merge(y); len(m) != 5 {
			b.Fatalf("merge = %s", m.Encode())
		}
	}
}

func TestVVEncodeParseRoundTrip(t *testing.T) {
	for _, v := range []VV{
		nil,
		{{Origin: 1, Ctr: 1}},
		{{Origin: 1, Ctr: 9}, {Origin: 1 << 40, Ctr: 2}},
	} {
		got, err := ParseVV(v.Encode())
		if err != nil {
			t.Fatalf("parse %q: %v", v.Encode(), err)
		}
		if got.Compare(v) != Equal {
			t.Fatalf("round trip %q -> %v", v.Encode(), got)
		}
	}
	for _, bad := range []string{"x", "1:", ":2", "1:2,", "1;2", "-1:2"} {
		if _, err := ParseVV(bad); err == nil {
			t.Errorf("ParseVV(%q) accepted", bad)
		}
	}
}

func TestVVSumMonotone(t *testing.T) {
	a := VV{}.Bump(1).Bump(2).Bump(1)
	if a.Sum() != 3 {
		t.Fatalf("sum=%d, want 3", a.Sum())
	}
	b := a.Merge(VV{{Origin: 9, Ctr: 4}})
	if b.Sum() <= a.Sum() {
		t.Fatalf("merge should not shrink the sum: %d -> %d", a.Sum(), b.Sum())
	}
}

func TestVVSupersedesAndTiebreak(t *testing.T) {
	a := VV{}.Bump(1)
	a2 := a.Bump(1)
	if !a2.Supersedes(a) || a.Supersedes(a2) {
		t.Fatal("causal dominance should supersede, and only one way")
	}
	if a.Supersedes(a) {
		t.Fatal("equal histories must not supersede (idempotent retries)")
	}
	// Concurrent: exactly one side wins the deterministic tiebreak.
	b := VV{}.Bump(2)
	aw, bw := a.Supersedes(b), b.Supersedes(a)
	if aw == bw {
		t.Fatalf("tiebreak not total: a=%v b=%v", aw, bw)
	}
	// Longer history wins regardless of origin order.
	long := VV{}.Bump(2).Bump(2)
	if !long.Supersedes(a) || a.Supersedes(long) {
		t.Fatal("longer concurrent history should win the tiebreak")
	}
}

func TestParseVVCanonicalises(t *testing.T) {
	for in, want := range map[string]string{
		"":                 "",
		"1:1":              "1:1",
		"3:1,1:2":          "1:2,3:1",
		"1:0":              "",
		"2:5,1:0,4:1":      "2:5,4:1",
		"4294967296:7,1:1": "1:1,4294967296:7",
	} {
		vv, err := ParseVV(in)
		if err != nil || vv.Encode() != want {
			t.Errorf("ParseVV(%q) = %q, %v; want %q", in, vv.Encode(), err, want)
		}
	}
	for _, bad := range []string{"1", "1:", ":1", "1:1,", ",1:1", "a:1", "1:b", "1:1,1:2", "2:1,1:1,2:3", "-1:1", "1:1;2:2"} {
		if vv, err := ParseVV(bad); err == nil {
			t.Errorf("ParseVV(%q) = %v, want an error", bad, vv)
		}
	}
}

// FuzzParseVV: ParseVV never panics, and what it accepts is canonical:
// origins strictly ascending, no zero counters, and Encode of it parses
// back to the same vector and the same bytes. encodes agrees with Encode
// on every input, the spellings ParseVV accepts but Encode never writes
// among them.
func FuzzParseVV(f *testing.F) {
	for _, s := range []string{"", "1:1", "1:2,4294967296:1", "3:1,1:2", "1:0", "1:1,1:2", "18446744073709551615:18446744073709551615", "1:1,", "a:b", "1:18446744073709551616",
		"01:1", "1:0,2:1", "1:1,2:1,3:0", "100:250,7001:99999"} {
		f.Add(s)
	}
	one := VV{{Origin: 1, Ctr: 1}}
	f.Fuzz(func(t *testing.T, s string) {
		if one.encodes(s) != (s == "1:1") {
			t.Fatalf("%v.encodes(%q) = %v", one, s, one.encodes(s))
		}
		vv, err := ParseVV(s)
		if err != nil {
			return
		}
		for i, e := range vv {
			if e.Ctr == 0 || (i > 0 && vv[i-1].Origin >= e.Origin) {
				t.Fatalf("ParseVV(%q) = %v: not canonical", s, vv)
			}
		}
		enc := vv.Encode()
		back, err := ParseVV(enc)
		if err != nil || back.Compare(vv) != Equal || back.Encode() != enc {
			t.Fatalf("ParseVV(%q) encodes to %q, which parses to %v (%v)", s, enc, back, err)
		}
		if !vv.encodes(enc) || vv.encodes(s) != (s == enc) {
			t.Fatalf("ParseVV(%q) = %v, Encode %q: encodes(Encode()) = %v, encodes(input) = %v",
				s, vv, enc, vv.encodes(enc), vv.encodes(s))
		}
	})
}
