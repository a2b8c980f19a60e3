package expt

import (
	"testing"

	"locind/internal/cdn"
	"locind/internal/netaddr"
	"locind/internal/obs"
)

// TestObsDoesNotPerturbResults is the observability ground rule: rendering
// an experiment with live metrics attached must produce byte-identical
// output to rendering it unobserved. The handles count; they never steer.
func TestObsDoesNotPerturbResults(t *testing.T) {
	w := quickWorld(t)
	if w.Cfg.Obs != nil {
		t.Fatal("shared world must start unobserved")
	}
	render := func() map[string]string {
		sens, err := RunSensitivity(w)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]string{
			"fig8":        RunFig8(w).Render(),
			"fig11b":      RunFig11bc(w, cdn.Popular).Render(),
			"sensitivity": sens.Render(),
			"fig12":       RunFig12(w).Render(),
		}
	}
	off := render()

	reg := obs.NewRegistry()
	w.Cfg.Obs = NewMetrics(reg)
	defer func() { w.Cfg.Obs = nil }()
	m := w.Cfg.Obs

	// Fig 8 alone first, for exact memo accounting: each collector's memo is
	// asked about each distinct address of the move table once, so nothing
	// hits.
	RunFig8(w)
	ends := map[netaddr.Addr]bool{}
	for _, e := range w.Devices.MoveEvents() {
		ends[e.From.Addr], ends[e.To.Addr] = true, true
	}
	distinct := int64(len(ends))
	if hits, misses := m.Memo.Hits.Value(), m.Memo.Misses.Value(); hits != 0 || misses != int64(len(w.RouteViews))*distinct {
		t.Fatalf("fig8 memo counters: hits=%d misses=%d, want 0 and %d collectors × %d distinct addresses",
			hits, misses, len(w.RouteViews), distinct)
	}

	on := render()
	for name, want := range off {
		if on[name] != want {
			t.Fatalf("%s output diverged with obs enabled:\n--- off ---\n%s\n--- on ---\n%s", name, want, on[name])
		}
	}

	// And the observed run actually observed something: one unit per
	// collector per driver that counts them (fig8 twice, fig11b, the 25 of
	// sensitivity).
	wantDone := int64(3*len(w.RouteViews) + len(w.RouteViews) + len(w.RIPE))
	if m.CollectorsDone.Value() != wantDone {
		t.Fatalf("collectors done = %d, want %d", m.CollectorsDone.Value(), wantDone)
	}
	if m.Rows.Value() == 0 {
		t.Fatal("no rows counted")
	}
	if m.Memo.Hits.Value() != 0 {
		t.Fatalf("a device driver's memo answered %d lookups from cache: the move table asks each address once", m.Memo.Hits.Value())
	}
}
