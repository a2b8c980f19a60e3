package analytic

import (
	"math"
	"testing"

	"locind/internal/topology"
)

func approx(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestPaperTable1Values(t *testing.T) {
	rows := PaperTable1(255)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Topology] = r
		// Indirection always costs exactly one update (1/n aggregate);
		// name-based routing always has zero stretch.
		approx(t, r.Topology+" ind update", r.Indirection.UpdateCost, 1.0/255, 1e-12)
		if r.NameBased.Stretch != 0 {
			t.Errorf("%s name-based stretch nonzero", r.Topology)
		}
	}
	approx(t, "chain ind stretch", byName["chain"].Indirection.Stretch, 85, 1e-9)
	approx(t, "chain nb update", byName["chain"].NameBased.UpdateCost, 1.0/3, 1e-12)
	approx(t, "clique ind stretch", byName["clique"].Indirection.Stretch, 1, 1e-12)
	approx(t, "clique nb update", byName["clique"].NameBased.UpdateCost, 1, 1e-12)
	approx(t, "tree ind stretch", byName["binary-tree"].Indirection.Stretch, 2*math.Log2(255), 1e-9)
	approx(t, "star nb update", byName["star"].NameBased.UpdateCost, 1.0/256, 1e-12)
}

// TestExactChainMatchesDerivation pins the exact chain update cost to the
// closed form (n²+3n−4)/(3n²) derived from the §5.1.2 sum, and the exact
// stretch to (n²−1)/(3n).
func TestExactChainMatchesDerivation(t *testing.T) {
	for _, n := range []int{2, 5, 16, 101} {
		g := topology.Chain(n)
		ind := ExactIndirection(g)
		nb := ExactNameBased(g)
		nf := float64(n)
		approx(t, "chain exact stretch", ind.Stretch, (nf*nf-1)/(3*nf), 1e-9)
		approx(t, "chain exact update", nb.UpdateCost, (nf*nf+3*nf-4)/(3*nf*nf), 1e-9)
	}
	// Asymptotics: both converge to the paper's n/3 and 1/3.
	g := topology.Chain(1001)
	approx(t, "chain asymptotic stretch ratio", ExactIndirection(g).Stretch/(1001.0/3), 1, 0.01)
	approx(t, "chain asymptotic update", ExactNameBased(g).UpdateCost, 1.0/3, 0.01)
}

func TestExactClique(t *testing.T) {
	n := 64
	g := topology.Clique(n)
	ind := ExactIndirection(g)
	nb := ExactNameBased(g)
	nf := float64(n)
	// E[dist] = P(H≠L)·1 = (n−1)/n → 1.
	approx(t, "clique stretch", ind.Stretch, (nf-1)/nf, 1e-9)
	// Every move i≠j updates all routers: E = P(i≠j) = (n−1)/n → 1.
	approx(t, "clique update", nb.UpdateCost, (nf-1)/nf, 1e-9)
}

func TestExactStarBothConventions(t *testing.T) {
	n := 128 // leaves; n+1 routers
	g := topology.Star(n)
	ind := ExactIndirection(g)
	// Stretch → 2 for large n (two random leaves are 2 apart).
	if ind.Stretch < 1.8 || ind.Stretch > 2 {
		t.Errorf("star stretch = %v, want ≈2", ind.Stretch)
	}
	full := ExactNameBased(g)
	transit := ExactNameBasedTransitOnly(g)
	nf := float64(n)
	// Counting local ports (the chain-derivation convention): hub updates
	// on every real move, both involved leaves update too ⇒ ≈ 3/(n+1).
	approx(t, "star full-convention update", full.UpdateCost*(nf+1), 3, 0.2)
	// Transit-only: only the hub ⇒ the paper's printed 1/(n+1).
	approx(t, "star transit-only update", transit.UpdateCost*(nf+1), 1, 0.1)
}

func TestExactBinaryTree(t *testing.T) {
	n := 255
	g := topology.BinaryTree(n)
	ind := ExactIndirection(g)
	nb := ExactNameBased(g)
	// The paper's 2·log2 n is the asymptotic leaf-to-leaf distance; the
	// exact all-pairs mean sits somewhat below it.
	upper := 2 * math.Log2(float64(n))
	if ind.Stretch > upper || ind.Stretch < upper/2 {
		t.Errorf("tree stretch = %v, want within [%v, %v]", ind.Stretch, upper/2, upper)
	}
	// Update cost ~ 2·log2(n)/(n-1): the expected number of routers on the
	// path between two random nodes, over n.
	want := 2 * math.Log2(float64(n)) / float64(n-1)
	if nb.UpdateCost < want/2 || nb.UpdateCost > want*2 {
		t.Errorf("tree update = %v, want ≈%v", nb.UpdateCost, want)
	}
}

func TestDegenerateInputs(t *testing.T) {
	empty := topology.New(0)
	if r := ExactIndirection(empty); r != (Result{}) {
		t.Error("empty graph indirection should be zero")
	}
	if r := ExactNameBased(empty); r != (Result{}) {
		t.Error("empty graph name-based should be zero")
	}
	if r := ExactNameBasedTransitOnly(empty); r != (Result{}) {
		t.Error("empty graph transit-only should be zero")
	}
}

// The fundamental §5 trade-off, verified on every toy topology: indirection
// pays stretch but O(1/n) update cost; name-based routing pays zero stretch
// but strictly more update cost (for n beyond the degenerate sizes).
func TestTradeoffHolds(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *topology.Graph
	}{
		{"chain", topology.Chain(64)},
		{"clique", topology.Clique(64)},
		{"tree", topology.BinaryTree(63)},
		{"star", topology.Star(63)},
	} {
		ind := ExactIndirection(tc.g)
		nb := ExactNameBased(tc.g)
		if !(ind.Stretch > 0 && nb.Stretch == 0) {
			t.Errorf("%s: stretch ordering violated", tc.name)
		}
		if !(nb.UpdateCost > ind.UpdateCost) {
			t.Errorf("%s: name-based update %v not above indirection %v",
				tc.name, nb.UpdateCost, ind.UpdateCost)
		}
	}
}

func BenchmarkExactNameBased(b *testing.B) {
	g := topology.Chain(255)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExactNameBased(g)
	}
}
