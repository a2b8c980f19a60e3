package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"locind/internal/netaddr"
)

// The placement hashes as they were first written — a hash.Hash64 and a
// fmt.Fprintf per shard, per replica, per call — kept as the oracles the
// inlined versions are held to. Placement is shared state by convention:
// every client, the repair pass and ExpectedBindingDigest must compute the
// same owner for a name, across versions of this code.

func refShardOf(name string, shards int) int {
	best, bestW := 0, uint64(0)
	for s := 0; s < shards; s++ {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%d", name, s)
		if w := h.Sum64(); w > bestW || (w == bestW && s < best) {
			best, bestW = s, w
		}
	}
	return best
}

func refReplicaOrder(name string, replicas int) []int {
	type weight struct {
		idx int
		w   uint64
	}
	ws := make([]weight, replicas)
	for i := 0; i < replicas; i++ {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s#%d", name, i)
		ws[i] = weight{idx: i, w: h.Sum64()}
	}
	sort.Slice(ws, func(a, b int) bool {
		if ws[a].w != ws[b].w {
			return ws[a].w > ws[b].w
		}
		return ws[a].idx < ws[b].idx
	})
	out := make([]int, replicas)
	for i := range ws {
		out[i] = ws[i].idx
	}
	return out
}

func refNameStripe(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64() % updateStripes
}

// orderOf is replicaOrder with a buffer of its own, for tests that keep
// the order past the call.
func orderOf(name string, replicas int) []int {
	var buf [stackReplicas]int
	return replicaOrder(name, replicas, &buf)
}

func TestPlacementMatchesFNVReference(t *testing.T) {
	var c Client
	names := []string{""}
	for i := 0; len(names) < 10_000; i++ {
		// The shapes the experiments, the bench and the tests use, and
		// bytes outside ASCII.
		names = append(names,
			fmt.Sprintf("soak-%07d.gns", i), fmt.Sprintf("bench-%06d.gns", i),
			fmt.Sprintf("host-%d.example", i), fmt.Sprintf("n%d\xffé|#", i))
	}
	for _, name := range names {
		if want := refNameStripe(name); c.nameLock(name) != &c.nameMu[want] {
			t.Fatalf("nameLock(%q) is not the reference's stripe %d", name, want)
		}
		for n := 1; n <= 16; n++ {
			if got, want := ShardOf(name, n), refShardOf(name, n); got != want {
				t.Fatalf("ShardOf(%q, %d) = %d, reference %d", name, n, got, want)
			}
			got, want := orderOf(name, n), refReplicaOrder(name, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("replicaOrder(%q, %d) = %v, reference %v", name, n, got, want)
				}
			}
		}
	}
	// Past the stack array the ordering allocates its scratch space; the
	// result is the same.
	for _, n := range []int{stackReplicas + 1, 3 * stackReplicas} {
		got, want := orderOf("big-set.gns", n), refReplicaOrder("big-set.gns", n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replicaOrder(%d replicas) = %v, reference %v", n, got, want)
			}
		}
	}
}

// TestExpectedBindingDigestPinned pins the reference digest of a fixed
// binding set. It moves only if placement, the canonical rendering, or the
// digest hash changes, and any of those breaks comparison with every
// digest recorded before the change.
func TestExpectedBindingDigestPinned(t *testing.T) {
	bindings := make(map[string][]netaddr.Addr)
	for i := 0; i < 500; i++ {
		addrs := []netaddr.Addr{netaddr.MakeAddr(10, byte(i>>8), byte(i), 1)}
		if i%5 == 0 {
			addrs = append(addrs, netaddr.MakeAddr(172, 16, byte(i), 2))
		}
		bindings[fmt.Sprintf("pinned-%04d.gns", i)] = addrs
	}
	const want = 0xfd2fd734d461e747 // computed with the fnv.New64a/fmt.Fprintf ShardOf this PR replaced
	if got, _ := ExpectedBindingDigest(4, 3, bindings); got != want {
		t.Fatalf("ExpectedBindingDigest = %#016x, pinned %#016x", got, uint64(want))
	}
}
