package netaddr

// Trie is a binary radix trie mapping IPv4 prefixes to values of type V. It
// supports exact insertion/removal, longest-prefix-match lookup, and ordered
// walks. The zero value is an empty trie ready for use.
//
// The implementation is a straightforward path-per-bit binary trie: lookups
// cost at most 32 node visits, which is plenty for FIBs with a few hundred
// thousand entries and keeps the code auditable. Most nodes are interior, so
// values live out of line: nodes are 12 bytes whatever V is, and a lookup
// reads the value table once, at the end.
type Trie[V any] struct {
	nodes []trieNode // nodes[0] is the root
	vals  []V        // value table: one slot per stored prefix, plus the vacated slots in free
	free  []int32    // slots of vals vacated by Remove; Insert drains these first
}

type trieNode struct {
	child [2]int32 // index into nodes, 0 = none (node 0 is the root)
	val   int32    // index into vals plus one, 0 = no prefix ends here
}

// growNodesPerPrefix is Grow's node estimate. The synthesized tables use 5.0
// nodes per prefix at every world size (a /16 per AS plus /24 more-specifics
// share long stems; DESIGN.md §5 has the counts); 8 leaves headroom without
// reserving several times what the table will hold.
const growNodesPerPrefix = 8

func (t *Trie[V]) root() int32 {
	if len(t.nodes) == 0 {
		t.nodes = append(t.nodes, trieNode{})
	}
	return 0
}

// Len returns the number of prefixes stored in the trie.
func (t *Trie[V]) Len() int { return len(t.vals) - len(t.free) }

// Grow pre-sizes the trie for n additional prefixes, so bulk builders (FIB
// derivation inserts every prefix of a RIB in one pass) avoid the
// append-doubling reallocations of growing a slot at a time. The value table
// is reserved exactly; the node arena by estimate, and a table that outgrows
// the estimate falls back to append growth. Grow only ever reserves
// capacity, never shrinks.
func (t *Trie[V]) Grow(n int) {
	if n <= 0 {
		return
	}
	t.root()
	if need := len(t.vals) + n - len(t.free); need > cap(t.vals) {
		vs := make([]V, len(t.vals), need)
		copy(vs, t.vals)
		t.vals = vs
	}
	if need := len(t.nodes) + n*growNodesPerPrefix; need > cap(t.nodes) {
		ns := make([]trieNode, len(t.nodes), need)
		copy(ns, t.nodes)
		t.nodes = ns
	}
}

// Insert associates v with prefix p, replacing any existing value. It reports
// whether the prefix was newly inserted (false means replaced).
func (t *Trie[V]) Insert(p Prefix, v V) bool {
	n := t.root()
	a := p.Addr()
	for i := 0; i < p.Bits(); i++ {
		b := a.Bit(i)
		if t.nodes[n].child[b] == 0 {
			t.nodes = append(t.nodes, trieNode{})
			t.nodes[n].child[b] = int32(len(t.nodes) - 1)
		}
		n = t.nodes[n].child[b]
	}
	if slot := t.nodes[n].val; slot != 0 {
		t.vals[slot-1] = v
		return false
	}
	if k := len(t.free); k > 0 {
		slot := t.free[k-1]
		t.free = t.free[:k-1]
		t.vals[slot] = v
		t.nodes[n].val = slot + 1
	} else {
		t.vals = append(t.vals, v)
		t.nodes[n].val = int32(len(t.vals))
	}
	return true
}

// find returns the node at the end of p's bit path, or false when the path
// leaves the trie. The node may hold no value.
func (t *Trie[V]) find(p Prefix) (int32, bool) {
	if len(t.nodes) == 0 {
		return 0, false
	}
	n := int32(0)
	a := p.Addr()
	for i := 0; i < p.Bits(); i++ {
		n = t.nodes[n].child[a.Bit(i)]
		if n == 0 {
			return 0, false
		}
	}
	return n, true
}

// Remove deletes the exact prefix p, reporting whether it was present. The
// value slot is zeroed and handed to the next Insert, so tables that flap
// (intradomain host routes) hold one slot per live prefix. Nodes are not
// reclaimed: an emptied bit path stays for the next insert under it, which is
// fine for our workloads where removals are rare and re-announce the same
// prefixes.
func (t *Trie[V]) Remove(p Prefix) bool {
	n, ok := t.find(p)
	if !ok || t.nodes[n].val == 0 {
		return false
	}
	slot := t.nodes[n].val - 1
	var zero V
	t.vals[slot] = zero
	t.free = append(t.free, slot)
	t.nodes[n].val = 0
	return true
}

// Lookup performs longest-prefix matching for address a, returning the value
// of the most specific covering prefix.
//
//lint:zeroalloc per probe; sits on the innermost loop of every strategy replay
func (t *Trie[V]) Lookup(a Addr) (V, bool) {
	nodes := t.nodes
	if len(nodes) == 0 {
		var zero V
		return zero, false
	}
	n := int32(0)
	best := nodes[0].val
	for i := 0; i < 32; i++ {
		n = nodes[n].child[a.Bit(i)]
		if n == 0 {
			break
		}
		if v := nodes[n].val; v != 0 {
			best = v
		}
	}
	if best == 0 {
		var zero V
		return zero, false
	}
	return t.vals[best-1], true
}

// Walk visits every stored prefix in lexicographic (address, then length)
// trie order. Returning false from fn stops the walk.
func (t *Trie[V]) Walk(fn func(Prefix, V) bool) {
	if len(t.nodes) == 0 {
		return
	}
	t.walk(0, 0, 0, fn)
}

func (t *Trie[V]) walk(n int32, addr Addr, depth int, fn func(Prefix, V) bool) bool {
	nd := t.nodes[n]
	if nd.val != 0 {
		if !fn(MakePrefix(addr, depth), t.vals[nd.val-1]) {
			return false
		}
	}
	if depth == 32 {
		return true
	}
	if c := nd.child[0]; c != 0 {
		if !t.walk(c, addr, depth+1, fn) {
			return false
		}
	}
	if c := nd.child[1]; c != 0 {
		if !t.walk(c, addr|Addr(1)<<(31-depth), depth+1, fn) {
			return false
		}
	}
	return true
}
