package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/netaddr"
)

// capture returns what fn prints to stdout.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	fn()
	w.Close()
	return string(<-done)
}

// TestStatsAndBestAgreeWithTheCollector writes a batch-built collector's
// dump, loads it the way the tool does (ReadRIB → the interning store →
// DeriveFIB) and requires `stats` and `best` to report what the collector's
// own RIB and fused-built FIB hold.
func TestStatsAndBestAgreeWithTheCollector(t *testing.T) {
	cfg := asgraph.DefaultSynthConfig()
	cfg.Tier2 = 80
	cfg.Stubs = 700
	g, err := asgraph.Synthesize(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := bgp.NewPrefixTable(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := bgp.BuildCollectors(g, pt, bgp.RouteViewsSpecs()[:1], rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	c := cols[0]
	path := filepath.Join(t.TempDir(), "rib_"+c.Name+".txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bgp.WriteRIB(f, c.Name, c.RIB); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rib, err := loadRIB(path)
	if err != nil {
		t.Fatal(err)
	}

	share := map[int]int{}
	c.FIB.Walk(func(_ netaddr.Prefix, rt bgp.Route) bool {
		share[rt.NextHop]++
		return true
	})
	top, topN := -1, 0
	for port, n := range share {
		if n > topN || n == topN && port < top {
			top, topN = port, n
		}
	}
	out := capture(t, func() { stats(rib) })
	for _, want := range []string{
		fmt.Sprintf("prefixes:        %d\n", c.RIB.NumPrefixes()),
		fmt.Sprintf("routes:          %d (", c.RIB.NumRoutes()),
		fmt.Sprintf("next-hop degree: %d\n", c.FIB.NextHopDegree()),
		fmt.Sprintf("top ports by prefix share:\n  AS%-6d %6d prefixes", top, topN),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output lacks %q:\n%s", want, out)
		}
	}

	for as := 0; as < g.N(); as += 97 {
		a := pt.AddrIn(as, 9)
		want, ok := c.FIB.RouteFor(a)
		if !ok {
			t.Fatalf("collector has no route for %v", a)
		}
		if got := capture(t, func() { best(rib, a.String()) }); got != want.String()+"\n" {
			t.Errorf("best %v = %q, the collector selects %q", a, got, want.String())
		}
	}
}
