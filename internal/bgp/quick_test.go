package bgp

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"locind/internal/asgraph"
	"locind/internal/netaddr"
)

// randRoute draws routes with small attribute ranges so ties at every rank
// level actually occur.
func randRoute(rng *rand.Rand) Route {
	pathLen := 1 + rng.Intn(4)
	path := make([]int, pathLen+1)
	for i := range path {
		path[i] = rng.Intn(50)
	}
	return Route{
		Prefix:    netaddr.MakePrefix(netaddr.Addr(rng.Uint32()), 16),
		NextHop:   path[0],
		LocalPref: rng.Intn(3),
		MED:       rng.Intn(3),
		ASPath:    path,
		Rel:       asgraph.Rel(rng.Intn(3)),
	}
}

type routeTriple struct{ A, B, C Route }

// Generate implements quick.Generator.
func (routeTriple) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(routeTriple{A: randRoute(rng), B: randRoute(rng), C: randRoute(rng)})
}

// rankKey linearizes the decision process so ordering laws can be checked
// against a total order.
func rankKey(r Route) [5]int {
	return [5]int{-r.LocalPref, int(r.Rel), r.PathLen(), r.MED, r.NextHop}
}

func keyLess(a, b [5]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Property: Better is exactly the strict order induced by the decision
// process's lexicographic key — hence irreflexive, antisymmetric, and
// transitive (the decision process can never cycle).
func TestBetterIsStrictTotalOrder(t *testing.T) {
	f := func(tr routeTriple) bool {
		a, b, c := tr.A, tr.B, tr.C
		if Better(a, a) {
			return false
		}
		if Better(a, b) != keyLess(rankKey(a), rankKey(b)) {
			return false
		}
		if Better(a, b) && Better(b, a) {
			return false
		}
		if Better(a, b) && Better(b, c) && !Better(a, c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: RIB.Best returns a route no other candidate beats, and
// DeriveFIB's entry for each prefix is that best route's next hop,
// independent of the routes' order.
func TestBestIsUndominated(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		prefix := netaddr.MustParsePrefix("10.1.0.0/16")
		count := int(n%12) + 1
		routes := make([]Route, count)
		for i := range routes {
			routes[i] = randRoute(rng)
			routes[i].Prefix = prefix
		}
		rib := NewRIB(routes)
		best, ok := rib.Best(prefix)
		if !ok {
			return false
		}
		for _, r := range routes {
			if Better(r, best) {
				return false
			}
		}
		fib := rib.DeriveFIB()
		port, ok := fib.Port(prefix.Nth(9))
		if !ok || port != best.NextHop {
			return false
		}
		// The order of the routes must not matter.
		slices.Reverse(routes)
		best2, _ := NewRIB(routes).Best(prefix)
		return rankKey(best) == rankKey(best2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
