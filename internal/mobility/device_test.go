package mobility

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/netaddr"
	"locind/internal/stats"
)

func testWorld(t testing.TB) (*asgraph.Graph, *bgp.PrefixTable) {
	t.Helper()
	cfg := asgraph.DefaultSynthConfig()
	cfg.Tier2 = 80
	cfg.Stubs = 700
	g, err := asgraph.Synthesize(cfg, rand.New(rand.NewSource(101)))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := bgp.NewPrefixTable(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, pt
}

func genTrace(t testing.TB, users, days int, seed int64) *DeviceTrace {
	t.Helper()
	g, pt := testWorld(t)
	cfg := DefaultDeviceConfig()
	cfg.Users = users
	cfg.Days = days
	dt, err := GenerateDeviceTrace(g, pt, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return dt
}

func TestGenerateDeviceTraceShape(t *testing.T) {
	dt := genTrace(t, 50, 7, 1)
	if len(dt.Users) != 50 || dt.Days != 7 {
		t.Fatalf("trace shape: %d users, %d days", len(dt.Users), dt.Days)
	}
	for _, u := range dt.Users {
		if len(u.Visits) == 0 {
			t.Fatalf("user %d has no visits", u.ID)
		}
		prevEnd := 0.0
		for i, v := range u.Visits {
			if v.Dur <= 0 {
				t.Fatalf("user %d visit %d non-positive duration %v", u.ID, i, v.Dur)
			}
			if v.Start+1e-9 < prevEnd {
				t.Fatalf("user %d visit %d overlaps previous (%v < %v)", u.ID, i, v.Start, prevEnd)
			}
			prevEnd = v.Start + v.Dur
			// Visits must not cross day boundaries.
			if int(v.Start/24) != int((v.Start+v.Dur-1e-9)/24) {
				t.Fatalf("user %d visit %d crosses midnight: start=%v dur=%v", u.ID, i, v.Start, v.Dur)
			}
			// The address must belong to the AS's address block.
			if v.Loc.Prefix.Bits() != 24 || !v.Loc.Prefix.Contains(v.Loc.Addr) {
				t.Fatalf("user %d visit %d bad prefix %v for addr %v", u.ID, i, v.Loc.Prefix, v.Loc.Addr)
			}
		}
		// Total observed time is Days*24.
		total := 0.0
		for _, v := range u.Visits {
			total += v.Dur
		}
		if math.Abs(total-float64(dt.Days)*24) > 1e-6 {
			t.Fatalf("user %d covers %v hours, want %v", u.ID, total, float64(dt.Days)*24)
		}
	}
}

func TestGenerateDeviceTraceErrors(t *testing.T) {
	g, pt := testWorld(t)
	cfg := DefaultDeviceConfig()
	cfg.Users = 0
	if _, err := GenerateDeviceTrace(g, pt, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero users should fail")
	}
	cfg = DefaultDeviceConfig()
	cfg.EyeballsPerRegion = 100000
	if _, err := GenerateDeviceTrace(g, pt, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("oversized pools should fail")
	}
}

func TestDeviceTraceDeterminism(t *testing.T) {
	a := genTrace(t, 20, 5, 33)
	b := genTrace(t, 20, 5, 33)
	for i := range a.Users {
		if len(a.Users[i].Visits) != len(b.Users[i].Visits) {
			t.Fatalf("user %d visit count diverged", i)
		}
		for j := range a.Users[i].Visits {
			if a.Users[i].Visits[j] != b.Users[i].Visits[j] {
				t.Fatalf("user %d visit %d diverged", i, j)
			}
		}
	}
}

// TestCalibration checks the generator against the paper's NomadLog
// aggregates with tolerant bands: median distinct ASes/prefixes/IPs per day
// of 2/2/3, median ~1 AS and ~3 IP transitions, a >10-IPs/day tail above
// 15%, and a dominant AS holding most of the day.
func TestCalibration(t *testing.T) {
	dt := genTrace(t, 372, 28, 7)
	avgs := dt.PerUserDailyAverages()
	if len(avgs) != 372 {
		t.Fatalf("averages for %d users", len(avgs))
	}
	var ips, prefixes, ases, ipTrans, asTrans []float64
	for _, a := range avgs {
		ips = append(ips, a.AvgDistinctIPs)
		prefixes = append(prefixes, a.AvgDistinctPrefixes)
		ases = append(ases, a.AvgDistinctASes)
		ipTrans = append(ipTrans, a.AvgIPTransitions)
		asTrans = append(asTrans, a.AvgASTransitions)
	}
	ipCDF, pfxCDF, asCDF := stats.NewCDF(ips), stats.NewCDF(prefixes), stats.NewCDF(ases)
	itCDF, atCDF := stats.NewCDF(ipTrans), stats.NewCDF(asTrans)

	if m := asCDF.Median(); m < 1.5 || m > 3.0 {
		t.Errorf("median distinct ASes/day = %.2f, want ~2", m)
	}
	if m := pfxCDF.Median(); m < 1.5 || m > 3.5 {
		t.Errorf("median distinct prefixes/day = %.2f, want ~2", m)
	}
	if m := ipCDF.Median(); m < 2.0 || m > 4.5 {
		t.Errorf("median distinct IPs/day = %.2f, want ~3", m)
	}
	// >20% of users change over 10 IP addresses a day (finding 1).
	tail := 1 - ipCDF.At(10)
	if tail < 0.12 || tail > 0.40 {
		t.Errorf("P(avg distinct IPs > 10) = %.2f, want ~0.2", tail)
	}
	if m := atCDF.Median(); m < 0.5 || m > 3.0 {
		t.Errorf("median AS transitions/day = %.2f, want ~1-2", m)
	}
	if m := itCDF.Median(); m < 2.0 || m > 5.0 {
		t.Errorf("median IP transitions/day = %.2f, want ~3", m)
	}
	// AS-transition extremes: min well below 1, max in the tens.
	if lo := atCDF.Min(); lo > 0.6 {
		t.Errorf("min AS transitions/day = %.2f, want <= 0.6", lo)
	}
	if hi := atCDF.Max(); hi < 8 || hi > 80 {
		t.Errorf("max AS transitions/day = %.2f, want tens", hi)
	}
	t.Logf("distinct/day medians: AS=%.1f prefix=%.1f IP=%.1f; transitions: AS=%.1f IP=%.1f; IP>10 tail=%.2f",
		asCDF.Median(), pfxCDF.Median(), ipCDF.Median(), atCDF.Median(), itCDF.Median(), tail)
}

func TestDominantFractions(t *testing.T) {
	dt := genTrace(t, 150, 14, 9)
	ip, prefix, as := dt.DominantFractions()
	if len(ip) == 0 || len(ip) != len(prefix) || len(ip) != len(as) {
		t.Fatalf("sample sizes %d/%d/%d", len(ip), len(prefix), len(as))
	}
	ipCDF, asCDF := stats.NewCDF(ip), stats.NewCDF(as)
	// Dominant AS dwell must dominate dominant IP dwell (an AS aggregates
	// several addresses), and both should be substantial (paper: ~70% of
	// the day at the dominant IP, ~85% at the dominant AS).
	if ipCDF.Median() < 0.5 || ipCDF.Median() > 0.95 {
		t.Errorf("median dominant-IP fraction = %.2f, want ~0.7", ipCDF.Median())
	}
	if asCDF.Median() < ipCDF.Median() {
		t.Errorf("dominant AS fraction %.2f below dominant IP fraction %.2f", asCDF.Median(), ipCDF.Median())
	}
	if asCDF.Median() < 0.65 {
		t.Errorf("median dominant-AS fraction = %.2f, want ~0.85", asCDF.Median())
	}
	for _, f := range as {
		if f <= 0 || f > 1+1e-9 {
			t.Fatalf("fraction out of range: %v", f)
		}
	}
	t.Logf("dominant medians: IP=%.2f AS=%.2f", ipCDF.Median(), asCDF.Median())
}

func TestMoveEvents(t *testing.T) {
	dt := genTrace(t, 40, 7, 5)
	evs := dt.MoveEvents()
	if len(evs) == 0 {
		t.Fatal("no mobility events")
	}
	for _, e := range evs {
		if e.From == e.To {
			t.Fatal("event with identical endpoints")
		}
		if e.Day < 0 || e.Day >= dt.Days {
			t.Fatalf("event day %d out of range", e.Day)
		}
	}
	// Cross-check one user's event count against per-day transition sums.
	u := &dt.Users[0]
	want := 0
	for d := 0; d < dt.Days; d++ {
		want += u.DayStats(d).IPTransitions
	}
	got := 0
	for _, e := range evs {
		if e.User == u.ID {
			got++
		}
	}
	if got != want {
		t.Fatalf("user 0: %d events vs %d transitions", got, want)
	}
}

func TestDayStatsEmptyDay(t *testing.T) {
	ut := &UserTrace{ID: 1}
	s := ut.DayStats(0)
	if s.DistinctIPs != 0 || s.DominantAS != -1 {
		t.Fatalf("empty day stats: %+v", s)
	}
}

// TestDayStatsTieGoesToLowestAS: four ASes holding 6 h each tie for the
// dominant AS; the lowest must win on every call, not whichever the map
// iteration happens to yield first.
func TestDayStatsTieGoesToLowestAS(t *testing.T) {
	ut := &UserTrace{ID: 1}
	for i, as := range []int{33, 11, 44, 22} {
		ut.Visits = append(ut.Visits, Visit{
			Start: float64(6 * i),
			Dur:   6,
			Loc:   Location{AS: as, Addr: netaddr.MakeAddr(10, 0, 0, byte(i+1))},
		})
	}
	for call := 0; call < 200; call++ {
		if s := ut.DayStats(0); s.DominantAS != 11 || s.DominantASFrac != 0.25 {
			t.Fatalf("call %d: dominant AS %d (%.2f of the day), want 11 (0.25)", call, s.DominantAS, s.DominantASFrac)
		}
	}
}

// TestDeviceTraceDay: a trace replayed day by day hands back exactly its
// visits, each on the day it starts, appended after what buf held — and
// nothing for an empty day or a day past the end.
func TestDeviceTraceDay(t *testing.T) {
	dt := genTrace(t, 12, 4, 3)
	for ui, u := range dt.Users {
		var all []Visit
		for day := 0; day <= dt.Days; day++ {
			n := len(all)
			all = dt.Day(ui, day, nil, all, nil)
			for _, v := range all[n:] {
				if v.Day() != day {
					t.Fatalf("user %d day %d: visit starting at %.2fh", ui, day, v.Start)
				}
			}
		}
		if len(all) != len(u.Visits) {
			t.Fatalf("user %d: %d visits replayed, trace has %d", ui, len(all), len(u.Visits))
		}
		for i := range all {
			if all[i] != u.Visits[i] {
				t.Fatalf("user %d visit %d: %+v, trace has %+v", ui, i, all[i], u.Visits[i])
			}
		}
	}
	gap := &DeviceTrace{Days: 3, Users: []UserTrace{{Visits: []Visit{{Start: 1, Dur: 1}, {Start: 50, Dur: 1}}}}}
	if got := gap.Day(0, 1, nil, nil, nil); len(got) != 0 {
		t.Fatalf("empty day 1 replayed %d visits", len(got))
	}
}

func TestDominantDisplacements(t *testing.T) {
	dt := genTrace(t, 60, 7, 13)
	pairs := dt.DominantDisplacements()
	if len(pairs) == 0 {
		t.Fatal("expected displacement pairs")
	}
	for _, p := range pairs {
		if p.VisitedAS == p.DominantAS {
			t.Fatal("pair visiting the dominant AS")
		}
		if p.DwellFrac <= 0 || p.DwellFrac >= 1 {
			t.Fatalf("dwell fraction %v out of range", p.DwellFrac)
		}
	}
	// The paper's finding: the median user spends around 25% of a day away
	// from the dominant AS. Equivalent check: mean total away-fraction.
	_, _, asFracs := dt.DominantFractions()
	away := 0.0
	for _, f := range asFracs {
		away += 1 - f
	}
	away /= float64(len(asFracs))
	if away < 0.05 || away > 0.45 {
		t.Errorf("mean away-from-dominant-AS fraction = %.2f, want ~0.15-0.3", away)
	}
	t.Logf("mean away fraction = %.2f", away)
}

func TestIMAPMoveEvents(t *testing.T) {
	dt := genTrace(t, 40, 7, 21)
	evs := IMAPMoveEvents(dt, 2.0, rand.New(rand.NewSource(2)))
	if len(evs) == 0 {
		t.Fatal("no IMAP events")
	}
	direct := dt.MoveEvents()
	// Application-level sampling must see no more transitions than the
	// device actually made.
	if len(evs) > len(direct) {
		t.Fatalf("IMAP events %d exceed device events %d", len(evs), len(direct))
	}
	for _, e := range evs {
		if e.From == e.To {
			t.Fatal("no-op IMAP event")
		}
	}
	if got := IMAPMoveEvents(dt, 0, rand.New(rand.NewSource(2))); got != nil {
		t.Fatal("zero check rate should yield nil")
	}
}

func TestNetTypeString(t *testing.T) {
	if WiFi.String() != "wifi" || Cellular.String() != "cellular" {
		t.Fatal("NetType names wrong")
	}
}

func TestPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if poisson(0, rng) != 0 || poisson(-1, rng) != 0 {
		t.Fatal("non-positive mean should give 0")
	}
	// Sample means should track the parameter for both code paths.
	for _, mean := range []float64{2.5, 50} {
		sum := 0
		n := 4000
		for i := 0; i < n; i++ {
			sum += poisson(mean, rng)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean) > mean*0.1 {
			t.Errorf("poisson(%v) sample mean %v", mean, got)
		}
	}
}

func BenchmarkGenerateDeviceTrace(b *testing.B) {
	g, pt := testWorld(b)
	cfg := DefaultDeviceConfig()
	cfg.Users = 100
	cfg.Days = 7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateDeviceTrace(g, pt, cfg, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

// Property-style invariants of the day accounting, over many users/days:
// transitions never exceed visits minus one, distinct counts are ordered
// IP >= prefix >= AS, dwell fractions are proper, and AS dwell sums to 1.
func TestDayStatsInvariants(t *testing.T) {
	dt := genTrace(t, 60, 6, 31)
	for ui := range dt.Users {
		u := &dt.Users[ui]
		for d := 0; d < dt.Days; d++ {
			s := u.DayStats(d)
			if s.DistinctIPs == 0 {
				continue
			}
			if s.DistinctIPs < s.DistinctPrefixes || s.DistinctPrefixes < s.DistinctASes {
				t.Fatalf("user %d day %d: distinct ordering broken: %+v", u.ID, d, s)
			}
			if s.IPTransitions < s.PrefixTransitions || s.PrefixTransitions < s.ASTransitions {
				t.Fatalf("user %d day %d: transition ordering broken: %+v", u.ID, d, s)
			}
			if s.DominantIPFrac <= 0 || s.DominantIPFrac > 1+1e-9 ||
				s.DominantASFrac < s.DominantIPFrac-1e-9 {
				t.Fatalf("user %d day %d: dwell fractions broken: %+v", u.ID, d, s)
			}
			sum := 0.0
			for _, a := range s.ASDwell {
				sum += a.Frac
			}
			if sum < 0.999 || sum > 1.001 {
				t.Fatalf("user %d day %d: AS dwell sums to %v", u.ID, d, sum)
			}
			if !slices.ContainsFunc(s.ASDwell, func(a ASFrac) bool { return a.AS == s.DominantAS }) {
				t.Fatalf("user %d day %d: dominant AS missing from dwell list", u.ID, d)
			}
		}
	}
}

// IMAP sampling at an enormous check rate converges to the device-level
// event sequence (every transition observed).
func TestIMAPHighRateConvergence(t *testing.T) {
	dt := genTrace(t, 6, 2, 77)
	dense := IMAPMoveEvents(dt, 500, rand.New(rand.NewSource(4)))
	direct := dt.MoveEvents()
	// At 500 checks/hour nearly every dwell is sampled; allow a tiny gap
	// for sub-sample dwells.
	if float64(len(dense)) < 0.9*float64(len(direct)) {
		t.Fatalf("dense IMAP saw %d of %d events", len(dense), len(direct))
	}
}
