package expt

import (
	"reflect"
	"testing"

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
	render := func() map[string]Output {
		outs, _ := runTable(t, w)
		return outs
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
		ends[e.From], ends[e.To] = true, true
	}
	distinct := int64(len(ends))
	if hits, misses := m.Memo.Hits.Value(), m.Memo.Misses.Value(); hits != 0 || misses != int64(len(w.RouteViews))*distinct {
		t.Fatalf("fig8 memo counters: hits=%d misses=%d, want 0 and %d collectors × %d distinct addresses",
			hits, misses, len(w.RouteViews), distinct)
	}

	on := render()
	for name, want := range off {
		if !reflect.DeepEqual(on[name], want) {
			t.Fatalf("%s output diverged with obs enabled:\n--- off ---\n%s\n--- on ---\n%s", name, want.Text, on[name].Text)
		}
	}

	// And the observed run actually observed something: one unit per
	// collector per driver run that counts them — fig8 twice (alone above,
	// then once for both fig8 and envelope), the 25 of sensitivity, and one
	// content grid per pool (fig11b fills the popular grid that ablate
	// reads, so the popular pool is replayed once).
	wantDone := int64(5*len(w.RouteViews) + len(w.RIPE))
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
