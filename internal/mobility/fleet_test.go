package mobility

import (
	"math"
	"math/rand"
	"testing"

	"locind/internal/asgraph"
	"locind/internal/bgp"
)

func fleetFixture(t *testing.T) (*asgraph.Graph, *bgp.PrefixTable, DeviceConfig) {
	t.Helper()
	cfg := asgraph.DefaultSynthConfig()
	cfg.Tier2 = 60
	cfg.Stubs = 500
	g, err := asgraph.Synthesize(cfg, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := bgp.NewPrefixTable(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := DefaultDeviceConfig()
	dcfg.Days = 4
	return g, pt, dcfg
}

// streamUser generates a user's full trace day by day through fresh state.
func streamUser(t *testing.T, f *FleetGen, user int) []Visit {
	t.Helper()
	var st UserState
	sc := NewDayScratch()
	var out []Visit
	for day := 0; day < f.cfg.Days; day++ {
		out = f.Day(user, day, &st, out, sc)
	}
	return out
}

// TestFleetGenDeterministic: same (seed, user) streams byte-identical
// visits across independent generations, scratches, and interleavings.
func TestFleetGenDeterministic(t *testing.T) {
	g, pt, dcfg := fleetFixture(t)
	f, err := NewFleetGen(g, pt, dcfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, user := range []int{0, 3, 17, 100000} {
		a := streamUser(t, f, user)
		b := streamUser(t, f, user)
		if len(a) != len(b) {
			t.Fatalf("user %d: %d vs %d visits across same-seed streams", user, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("user %d visit %d diverged: %+v vs %+v", user, i, a[i], b[i])
			}
		}
	}
	// A different fleet seed must actually change the stream.
	f2, err := NewFleetGen(g, pt, dcfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	a, b := streamUser(t, f, 3), streamUser(t, f2, 3)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 9 and 10 generated identical traces for user 3")
	}
}

// TestFleetGenDayTiling: every generated day tiles [24d, 24d+24) with
// contiguous, positive-duration visits.
func TestFleetGenDayTiling(t *testing.T) {
	g, pt, dcfg := fleetFixture(t)
	f, err := NewFleetGen(g, pt, dcfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewDayScratch()
	for user := 0; user < 40; user++ {
		var st UserState
		for day := 0; day < f.cfg.Days; day++ {
			vs := f.Day(user, day, &st, nil, sc)
			if len(vs) == 0 {
				t.Fatalf("user %d day %d has no visits", user, day)
			}
			base := float64(day) * 24
			at := base
			for i, v := range vs {
				if math.Abs(v.Start-at) > 1e-9 {
					t.Fatalf("user %d day %d visit %d starts %v, want %v (gap/overlap)", user, day, i, v.Start, at)
				}
				if v.Dur <= 0 {
					t.Fatalf("user %d day %d visit %d has non-positive duration %v", user, day, i, v.Dur)
				}
				at = v.Start + v.Dur
			}
			if math.Abs(at-(base+24)) > 1e-9 {
				t.Fatalf("user %d day %d ends at %v, want %v", user, day, at, base+24)
			}
		}
	}
}

// TestFleetGenArenaAppend: appending several users' days onto one shared
// buffer leaves each window identical to a standalone generation — the
// region-limited merge must never coalesce across user boundaries.
func TestFleetGenArenaAppend(t *testing.T) {
	g, pt, dcfg := fleetFixture(t)
	f, err := NewFleetGen(g, pt, dcfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewDayScratch()
	const users = 25
	var arena []Visit
	type window struct{ off, n int }
	var wins []window
	states := make([]UserState, users)
	for u := 0; u < users; u++ {
		off := len(arena)
		arena = f.Day(u, 0, &states[u], arena, sc)
		wins = append(wins, window{off, len(arena) - off})
	}
	for u := 0; u < users; u++ {
		var st UserState
		want := f.Day(u, 0, &st, nil, sc)
		got := arena[wins[u].off : wins[u].off+wins[u].n]
		if len(got) != len(want) {
			t.Fatalf("user %d window has %d visits, standalone %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("user %d visit %d diverged in shared arena", u, i)
			}
		}
	}
}

// TestFleetGenHomeEvolves: over enough user-days DHCP turnover must change
// some home address, and the evolved address must persist into later days
// through UserState.
func TestFleetGenHomeEvolves(t *testing.T) {
	g, pt, dcfg := fleetFixture(t)
	dcfg.Days = 20
	dcfg.HomeDHCPDaily = 0.5 // force frequent turnover
	f, err := NewFleetGen(g, pt, dcfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewDayScratch()
	changed := false
	for user := 0; user < 5 && !changed; user++ {
		var st UserState
		var prev UserState
		for day := 0; day < f.cfg.Days; day++ {
			_ = f.Day(user, day, &st, nil, sc)
			if day > 0 && st.homeAddr != prev.homeAddr {
				changed = true
			}
			prev = st
		}
	}
	if !changed {
		t.Fatal("no home address ever changed despite 50% daily DHCP turnover")
	}
}
