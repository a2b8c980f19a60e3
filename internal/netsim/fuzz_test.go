package netsim

import (
	"math/rand"
	"testing"
)

// FuzzNameRouting drives a move script over a random connected graph and
// holds NameRouting to its contract after every move: Move returns a fresh
// per-router compare of the two NextHops rows, a repeated (from, to) pair
// gets the same answer back from the memo, and Send from every router
// delivers along a shortest path (Hops == Dist).
//
// data[0] picks the size (1 to 48 routers), data[1] seeds the graph (a
// preferential-attachment backbone plus extra edges), data[2] is the
// attachment router and every later byte the next router moved to, modulo
// the size.
//
// testdata/fuzz/FuzzNameRouting holds a two-node graph, a self-move and a
// pair repeated back and forth.
func FuzzNameRouting(f *testing.F) {
	f.Add([]byte{47, 3, 0, 46, 12, 12, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		if len(data) > 256 {
			data = data[:256]
		}
		g := connectedGraph(rand.New(rand.NewSource(int64(data[1]))), 1+int(data[0])%48)
		net := mustNet(t, g)
		next := g.NextHops()
		nr := NewNameRouting(net)
		at := int(data[2]) % g.N()
		nr.Attach("u", at)
		seen := map[[2]int]int{}
		for _, b := range data[3:] {
			to := int(b) % g.N()
			got := nr.Move("u", to)
			if want := displaced(next, at, to); got != want {
				t.Fatalf("%d routers: move %d->%d updates %d, per-router compare %d", g.N(), at, to, got, want)
			}
			pair := [2]int{at, to}
			if prev, ok := seen[pair]; ok && prev != got {
				t.Fatalf("%d routers: move %d->%d updates %d, earlier %d", g.N(), at, to, got, prev)
			}
			seen[pair] = got
			at = to
			for src := 0; src < g.N(); src++ {
				if d := nr.Send(src, "u"); !d.Delivered || d.Hops != net.Dist(src, at) {
					t.Fatalf("%d routers: send %d->%d: %+v, dist %d", g.N(), src, at, d, net.Dist(src, at))
				}
			}
		}
	})
}
