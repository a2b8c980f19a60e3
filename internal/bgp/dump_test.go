package bgp

import (
	"bufio"
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"locind/internal/asgraph"
	"locind/internal/netaddr"
)

func TestRIBDumpRoundTrip(t *testing.T) {
	g, pt := testInternet(t, 4)
	cols, err := BuildCollectors(g, pt, RouteViewsSpecs()[:2], rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	orig := cols[0].RIB

	var buf strings.Builder
	if err := WriteRIB(&buf, cols[0].Name, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRIB(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumPrefixes() != orig.NumPrefixes() || back.NumRoutes() != orig.NumRoutes() {
		t.Fatalf("round trip lost routes: %d/%d vs %d/%d",
			back.NumPrefixes(), back.NumRoutes(), orig.NumPrefixes(), orig.NumRoutes())
	}
	// Decision process must agree on every prefix, and derived FIBs must
	// forward identically.
	fib1 := orig.DeriveFIB()
	fib2 := back.DeriveFIB()
	for _, p := range orig.Prefixes() {
		b1, _ := orig.Best(p)
		b2, _ := back.Best(p)
		if b1.NextHop != b2.NextHop || b1.PathLen() != b2.PathLen() || b1.Rel != b2.Rel {
			t.Fatalf("best route diverged for %v: %v vs %v", p, b1, b2)
		}
		a := p.Nth(7)
		p1, _ := fib1.Port(a)
		p2, _ := fib2.Port(a)
		if p1 != p2 {
			t.Fatalf("FIB diverged at %v", a)
		}
	}
}

func TestReadRIBTolerance(t *testing.T) {
	in := `# a comment

0.42.0.0/16|17|0|1|peer|17 204 298
0.42.0.0/16|9|0|0|customer|9 298

# trailing comment
`
	rib, err := ReadRIB(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rib.NumRoutes() != 2 || rib.NumPrefixes() != 1 {
		t.Fatalf("routes=%d prefixes=%d", rib.NumRoutes(), rib.NumPrefixes())
	}
	best, _ := rib.Best(netaddr.MustParsePrefix("0.42.0.0/16"))
	if best.Rel != asgraph.RelCustomer || best.NextHop != 9 {
		t.Fatalf("best = %v", best)
	}
}

func TestReadRIBErrors(t *testing.T) {
	cases := []string{
		"0.42.0.0/16|17|0|1|peer",                  // missing field
		"bogus|17|0|1|peer|17",                     // bad prefix
		"0.42.0.0/16|x|0|1|peer|17",                // bad next hop
		"0.42.0.0/16|17|y|1|peer|17",               // bad local pref
		"0.42.0.0/16|17|0|z|peer|17",               // bad med
		"0.42.0.0/16|17|0|1|frenemy|17",            // bad relationship
		"0.42.0.0/16|17|0|1|peer|17 two",           // bad path AS
		"0.42.0.0/16|17|0|1|peer|",                 // empty path
		"0.42.0.0/16|17|0|1|peer|17 204|extra|x|y", // too many fields
	}
	for _, c := range cases {
		if _, err := ReadRIB(strings.NewReader(c)); err == nil {
			t.Errorf("ReadRIB(%q) should fail", c)
		}
	}
}

// FuzzReadRIB holds ReadRIB to checkDump on arbitrary bytes. The committed
// corpus (testdata/fuzz/FuzzReadRIB) has negative numbers, an AS above 2³¹,
// two routes from one next hop for one prefix, a comment between routes and
// prefixes whose lines interleave (A B A C B A), which NewRIB must group
// into a slab of exactly the six rows.
func FuzzReadRIB(f *testing.F) {
	f.Add([]byte("# locind-rib v1 name=x prefixes=1 routes=2\n0.42.0.0/16|17|0|1|peer|17 204 298\n0.42.0.0/16|9|0|0|customer|9 298\n"))
	f.Fuzz(func(t *testing.T, data []byte) { checkDump(t, data) })
}

// TestReadRIBMegabyteLine runs the fuzz target's checks on a line just under
// the scanner's 1 MiB limit, which must load, and one just over, which must
// be refused. They are not fuzz seeds: mutating a megabyte input stalls the
// ten-second CI smoke.
func TestReadRIBMegabyteLine(t *testing.T) {
	long := "0.7.0.0/16|5|0|0|provider|5" + strings.Repeat(" 7", (1<<19)-20)
	if !checkDump(t, []byte(long+"\n0.7.0.0/24|5|0|0|provider|5 7\n")) {
		t.Error("a line of 1 MiB less 13 bytes was refused")
	}
	if checkDump(t, []byte(long+strings.Repeat(" 7", 20)+"\n")) {
		t.Error("a line of 1 MiB plus 27 bytes was accepted")
	}
}

// checkDump reports whether ReadRIB accepts data, and fails the test unless
// (1) the store hands back, prefix by prefix and in line order, exactly what
// parseRouteLine made of each line — every field, every path element — so
// interning attribute sets and paths loses nothing, whatever integers the
// dump carries, in a candidate slab of exactly one entry per line; (2) Best
// and DeriveFIB select what Better selects over those lines; (3) WriteRIB's
// output reads back and writes the same bytes again.
func checkDump(t *testing.T, data []byte) bool {
	rib, err := ReadRIB(bytes.NewReader(data))
	if err != nil {
		return false
	}
	want := map[netaddr.Prefix][]Route{}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rt, err := parseRouteLine(line)
		if err != nil {
			t.Fatalf("ReadRIB accepted a dump whose line %q does not parse: %v", line, err)
		}
		want[rt.Prefix] = append(want[rt.Prefix], rt)
		lines++
	}
	if rib.NumPrefixes() != len(want) || rib.NumRoutes() != lines {
		t.Fatalf("%d prefixes and %d routes stored, %d and %d in the dump", rib.NumPrefixes(), rib.NumRoutes(), len(want), lines)
	}
	if !exactSlab(rib, lines) {
		t.Fatalf("%d lines in a candidate slab of length %d, capacity %d", lines, len(rib.cands), cap(rib.cands))
	}
	selected := map[netaddr.Prefix]Route{}
	for _, e := range fibEntries(rib.DeriveFIB()) {
		selected[e.Prefix] = e.Route
	}
	for p, ws := range want {
		if got := rib.Routes(p); !reflect.DeepEqual(got, ws) {
			t.Fatalf("%v: stored %v, the lines say %v", p, got, ws)
		}
		best := ws[0]
		for _, w := range ws[1:] {
			if Better(w, best) {
				best = w
			}
		}
		b, ok := rib.Best(p)
		sel := selected[p]
		if !ok || !reflect.DeepEqual(b, best) || !reflect.DeepEqual(sel, best) {
			t.Fatalf("%v: Best %v, FIB %v, Better over the lines selects %v", p, b, sel, best)
		}
	}
	var once, twice bytes.Buffer
	if err := WriteRIB(&once, "x", rib); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRIB(bytes.NewReader(once.Bytes()))
	if err != nil {
		t.Fatalf("WriteRIB's output does not read back: %v", err)
	}
	if err := WriteRIB(&twice, "x", back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(once.Bytes(), twice.Bytes()) {
		t.Fatalf("WriteRIB(ReadRIB(x)) is not a fixed point:\n%s\n---\n%s", once.Bytes(), twice.Bytes())
	}
	return true
}
