// The race detector's sync.Pool drops a share of its Puts, so the
// transport's datagram buffers are reallocated at random there: the counts
// below hold in a plain build only.

//go:build !race

package cluster

import (
	"context"
	"testing"

	"locind/internal/netaddr"
)

// Heap allocations of one tracer-off operation on a 1×3 loopback cluster
// with warm sockets: client and all three replicas together, since
// AllocsPerRun counts the whole process. Nothing on a replica leg may
// allocate beyond what it carries: a per-attempt context and timer, or
// span labels moved to the heap by a span that keeps the caller's slice,
// a boxed peer address per datagram, or a version vector re-encoded or
// re-parsed where the leg already holds it, would each raise these.
const (
	updateAllocCeiling = 29
	lookupAllocCeiling = 9
)

func TestTracerOffAllocCeiling(t *testing.T) {
	_, cl, _ := startCluster(t, 1, 3, 1)
	ctx := context.Background()
	const name = "alloc.test"
	addrs := []netaddr.Addr{netaddr.MustParseAddr("10.1.2.3")}
	update := func() {
		if _, err := cl.Update(ctx, name, addrs); err != nil {
			t.Fatal(err)
		}
	}
	// Counters past 99 as well as small ones: VV.Encode appends digits into
	// a stack buffer, so a counter's width no longer moves the count.
	for i := 0; i < 100; i++ {
		update()
	}
	if got := testing.AllocsPerRun(200, update); got > updateAllocCeiling {
		t.Errorf("Client.Update allocates %.0f times per op, ceiling %d", got, updateAllocCeiling)
	}
	lookup := func() {
		if _, err := cl.Lookup(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(200, lookup); got > lookupAllocCeiling {
		t.Errorf("Client.Lookup allocates %.0f times per op, ceiling %d", got, lookupAllocCeiling)
	}
}
