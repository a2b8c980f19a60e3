package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"locind/internal/bgp"
	"locind/internal/mobility"
	"locind/internal/netaddr"
)

// fibAndAddrs generates a random FIB over a few /16s plus probe address
// sets drawn mostly from covered space.
type fibAndAddrs struct {
	fib    *bgp.FIB
	before []netaddr.Addr
	after  []netaddr.Addr
}

// Generate implements quick.Generator.
func (fibAndAddrs) Generate(rng *rand.Rand, _ int) reflect.Value {
	nPrefixes := 2 + rng.Intn(8)
	prefixes := make([]netaddr.Prefix, 0, nPrefixes)
	routes := make([]bgp.Route, 0, nPrefixes)
	for i := 0; i < nPrefixes; i++ {
		p := netaddr.MakePrefix(netaddr.MakeAddr(byte(10+i), 0, 0, 0), 16)
		prefixes = append(prefixes, p)
		pathLen := 1 + rng.Intn(4)
		path := make([]int, pathLen+1)
		port := rng.Intn(5)
		path[0] = port
		routes = append(routes, bgp.Route{Prefix: p, NextHop: port, ASPath: path})
	}
	fib := bgp.NewRIB(routes).DeriveFIB()
	draw := func() []netaddr.Addr {
		n := rng.Intn(6)
		out := make([]netaddr.Addr, 0, n)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.85 {
				out = append(out, prefixes[rng.Intn(len(prefixes))].Nth(uint64(rng.Uint32())))
			} else {
				out = append(out, netaddr.MakeAddr(200, byte(rng.Intn(4)), 0, 1)) // unrouted
			}
		}
		return out
	}
	return reflect.ValueOf(fibAndAddrs{fib: fib, before: draw(), after: draw()})
}

// Property: the best port is always a member of the eligible port set; the
// port set is sorted and duplicate-free; empty/unrouted sets have no best.
func TestBestPortMembership(t *testing.T) {
	f := func(fa fibAndAddrs) bool {
		ports := PortSet(fa.fib, fa.before)
		for i := 1; i < len(ports); i++ {
			if ports[i] <= ports[i-1] {
				return false
			}
		}
		best, ok := BestPortOf(fa.fib, fa.before)
		if !ok {
			return len(ports) == 0
		}
		for _, p := range ports {
			if p == best {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: ContentUpdated is symmetric for controlled flooding (a set
// change is a set change in either direction), irreflexive for both
// strategies, and unaffected by intra-set address rotation within the same
// ports.
func TestContentUpdatedLaws(t *testing.T) {
	f := func(fa fibAndAddrs) bool {
		// Irreflexive.
		if ContentUpdated(fa.fib, fa.before, fa.before, BestPort) {
			return false
		}
		if ContentUpdated(fa.fib, fa.before, fa.before, ControlledFlooding) {
			return false
		}
		// Flooding symmetry.
		ab := ContentUpdated(fa.fib, fa.before, fa.after, ControlledFlooding)
		ba := ContentUpdated(fa.fib, fa.after, fa.before, ControlledFlooding)
		if ab != ba {
			return false
		}
		// Port-set equality implies no flooding update.
		if portSetKey(PortSet(fa.fib, fa.before)) == portSetKey(PortSet(fa.fib, fa.after)) && ab {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: MoveTable's displacement test is irreflexive and symmetric
// (ports either differ or they do not, regardless of direction).
func TestDisplacedLaws(t *testing.T) {
	f := func(fa fibAndAddrs) bool {
		if len(fa.before) == 0 || len(fa.after) == 0 {
			return true
		}
		a, b := fa.before[0], fa.after[0]
		s := NewMoveTable(
			[]mobility.MoveEvent{{From: a, To: a}},
			[]mobility.MoveEvent{{From: a, To: b}},
			[]mobility.MoveEvent{{From: b, To: a}},
		).Stats(fa.fib)
		return s[0].Updates == 0 && s[1] == s[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
