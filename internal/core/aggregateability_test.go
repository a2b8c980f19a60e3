package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"locind/internal/bgp"
	"locind/internal/names"
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
	sets := map[names.Name][]netaddr.Addr{
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
		sets := map[names.Name][]netaddr.Addr{}
		for i := rng.Intn(30); i >= 0; i-- {
			parts := make([]string, rng.Intn(5))
			for j := range parts {
				parts[j] = labels[rng.Intn(len(labels))]
			}
			addrs := make([]netaddr.Addr, rng.Intn(4))
			for j := range addrs {
				addrs[j] = netaddr.MakeAddr(byte(10+rng.Intn(4)), 0, 0, byte(rng.Intn(4)))
			}
			sets[names.Name(strings.Join(parts, "."))] = addrs
		}
		got := AggregateabilityPerRouter(bgp.NewFIBSet(fibs), sets)
		for k, f := range fibs {
			if oracle := AggregateabilityBestPort(f, sets); got[k] != oracle {
				t.Fatalf("trial %d router %d: %v, trie oracle %v over %s", trial, k, got[k], oracle, fmt.Sprint(sets))
			}
		}
	}
}
