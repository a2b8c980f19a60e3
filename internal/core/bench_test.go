package core_test

import (
	"testing"

	"locind/internal/core"
	"locind/internal/expt"
)

// BenchmarkMoveTableStats counts a quick world's Figure 8 move table at its
// first RouteViews collector, once through the raw FIB and once through a
// fresh Memo per count, as RunFig8 does. The difference between the two is
// what a device driver pays for its memo.
func BenchmarkMoveTableStats(b *testing.B) {
	w, err := expt.BuildWorld(expt.QuickConfig())
	if err != nil {
		b.Fatal(err)
	}
	moves := core.NewMoveTable(w.Devices.MoveEvents())
	fib := w.RouteViews[0].FIB
	for _, c := range []struct {
		name   string
		lookup func() core.PortLookup
	}{
		{"fib", func() core.PortLookup { return fib }},
		{"memo", func() core.PortLookup { return core.NewMemo(fib) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := moves.Stats(c.lookup()); len(got) != 1 {
					b.Fatalf("%d group totals, want 1", len(got))
				}
			}
		})
	}
}
