// The race detector's runtime allocates beside the program's own objects,
// so the ceiling below holds in a plain build only.

//go:build !race

package bgp

import (
	"math/rand"
	"runtime"
	"testing"
)

// buildBytesCeiling bounds the heap bytes one BuildCollectors of the 25
// RouteViews and RIPE collectors allocates on the quick world's internet
// (expt.QuickConfig: Tier2 80, Stubs 700, one more-specific per AS, the
// default seed's graph and collector streams) on two workers. It stores each
// origin's run of candidates once, spanned by both of the origin's prefixes
// over the plan's one prefix index, and each FIB slot as a 16-byte entry: a
// prefix map per collector's RIB (+1.7 MB), a run copied per prefix
// (+2.3 MB) or a 64-byte Route per slot (+1.9 MB) fails here.
const buildBytesCeiling = 7_000_000 // 6.41 MB measured on amd64, go1.24

func TestBuildCollectorsBytesCeiling(t *testing.T) {
	prev := runtime.GOMAXPROCS(2) // the build takes a route table per worker
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	g, pt := synthInternet(t, 20140817+1, 80, 700)
	specs := append(RouteViewsSpecs(), RIPESpecs()...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := BuildCollectors(g, pt, specs, rand.New(rand.NewSource(20140817+2)))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("BuildCollectors allocated %d bytes", got)
	if got > buildBytesCeiling {
		t.Errorf("BuildCollectors allocated %d bytes, ceiling %d", got, buildBytesCeiling)
	}
}
