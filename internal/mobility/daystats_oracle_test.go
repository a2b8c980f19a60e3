package mobility

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"locind/internal/netaddr"
)

// mapDayStats is DayStats as the map-based code returned it: ASDwell, which
// shadows the embedded field, maps each AS to its dwell fraction.
type mapDayStats struct {
	DayStats
	ASDwell map[int]float64
}

// oracleDayStats is the map-based DayStats, verbatim: one map of dwell per
// address, prefix and AS, and a map of AS dwell fractions.
func oracleDayStats(ut *UserTrace, day int) mapDayStats {
	s := mapDayStats{DayStats: DayStats{DominantAS: -1}}
	ipTime := map[netaddr.Addr]float64{}
	pfxTime := map[netaddr.Prefix]float64{}
	asTime := map[int]float64{}
	total := 0.0
	var prev *Visit
	for i := range ut.Visits {
		v := &ut.Visits[i]
		if v.Day() != day {
			if v.Day() > day {
				break
			}
			prev = v
			continue
		}
		ipTime[v.Loc.Addr] += v.Dur
		pfxTime[v.Loc.Prefix] += v.Dur
		asTime[v.Loc.AS] += v.Dur
		total += v.Dur
		if prev != nil {
			if prev.Loc.Addr != v.Loc.Addr {
				s.IPTransitions++
			}
			if prev.Loc.Prefix != v.Loc.Prefix {
				s.PrefixTransitions++
			}
			if prev.Loc.AS != v.Loc.AS {
				s.ASTransitions++
			}
		}
		prev = v
	}
	s.DistinctIPs = len(ipTime)
	s.DistinctPrefixes = len(pfxTime)
	s.DistinctASes = len(asTime)
	if total <= 0 {
		return s
	}
	maxIP, maxPfx, maxAS := 0.0, 0.0, 0.0
	for _, t := range ipTime {
		if t > maxIP {
			maxIP = t
		}
	}
	for _, t := range pfxTime {
		if t > maxPfx {
			maxPfx = t
		}
	}
	s.ASDwell = make(map[int]float64, len(asTime))
	for as, t := range asTime {
		s.ASDwell[as] = t / total
		// The lowest AS wins a tie, whatever order the map yields them in.
		if t > maxAS || (t == maxAS && as < s.DominantAS) {
			maxAS = t
			s.DominantAS = as
		}
	}
	s.DominantIPFrac = maxIP / total
	s.DominantPrefixFrac = maxPfx / total
	s.DominantASFrac = maxAS / total
	return s
}

// sorted is the oracle's answer in DayStats' shape: ASDwell as pairs sorted
// by AS, nil where the oracle's map is nil.
func (m mapDayStats) sorted() DayStats {
	s := m.DayStats
	if m.ASDwell != nil {
		s.ASDwell = make([]ASFrac, 0, len(m.ASDwell))
		for as, frac := range m.ASDwell {
			s.ASDwell = append(s.ASDwell, ASFrac{as, frac})
		}
		slices.SortFunc(s.ASDwell, func(a, b ASFrac) int { return cmp.Compare(a.AS, b.AS) })
	}
	return s
}

// CheckDayStatsOracle holds DayStats to the map-based oracle, field for
// field, on every day of every user of dt and on the day after the trace
// ends.
func CheckDayStatsOracle(t *testing.T, dt *DeviceTrace) {
	t.Helper()
	for ui := range dt.Users {
		u := &dt.Users[ui]
		for d := 0; d <= dt.Days; d++ {
			// No float here is NaN or -0, so == on the floats is bit-for-bit
			// equality.
			if got, want := u.DayStats(d), oracleDayStats(u, d).sorted(); !reflect.DeepEqual(got, want) {
				t.Fatalf("user %d day %d:\n got %+v\nwant %+v", u.ID, d, got, want)
			}
		}
	}
}

func TestDayStatsMatchesMapOracle(t *testing.T) {
	for _, seed := range []int64{5, 21, 31, 77} {
		CheckDayStatsOracle(t, genTrace(t, 60, 6, seed))
	}
}

// TestDayStatsMatchesMapOracleHandBuilt covers the days a generated trace
// rarely or never makes: an exact AS tie, more than 16 distinct addresses,
// prefixes and ASes in one day, a day whose first visit follows one of the
// day before, a visit of zero duration, a day of nothing but one, and a
// user with no visits at all.
func TestDayStatsMatchesMapOracleHandBuilt(t *testing.T) {
	loc := func(as int, a netaddr.Addr) Location {
		return Location{AS: as, Prefix: netaddr.MakePrefix(a, 24), Addr: a}
	}
	var tie, wide, carried UserTrace
	for i, as := range []int{33, 11, 44, 22, 11, 33} {
		tie.Visits = append(tie.Visits, Visit{Start: float64(4 * i), Dur: 4, Loc: loc(as, netaddr.MakeAddr(10, byte(as), 0, byte(i+1)))})
	}
	for i := 0; i < 40; i++ {
		a := netaddr.MakeAddr(20, byte(i%25), byte(i), 1)
		wide.Visits = append(wide.Visits, Visit{Start: 0.5 * float64(i), Dur: 0.05 * float64(1+i%7), Loc: loc(100+i%30, a)})
	}
	carried.Visits = []Visit{
		{Start: 20, Dur: 4, Loc: loc(7, netaddr.MakeAddr(30, 0, 0, 1))},
		{Start: 24, Dur: 0, Loc: loc(8, netaddr.MakeAddr(30, 0, 1, 1))},
		{Start: 25, Dur: 3, Loc: loc(7, netaddr.MakeAddr(30, 0, 0, 1))},
		{Start: 50, Dur: 2, Loc: loc(9, netaddr.MakeAddr(30, 0, 2, 1))},
		{Start: 74, Dur: 0, Loc: loc(9, netaddr.MakeAddr(30, 0, 2, 1))},
	}
	dt := &DeviceTrace{Days: 3, Users: []UserTrace{tie, wide, carried, {ID: 4}}}
	for i := range dt.Users {
		dt.Users[i].ID = i + 1
	}
	CheckDayStatsOracle(t, dt)
	if s := tie.DayStats(0); s.DominantAS != 11 || s.DistinctASes != 4 {
		t.Fatalf("tie day: dominant AS %d of %d ASes, want 11 of 4", s.DominantAS, s.DistinctASes)
	}
	if s := wide.DayStats(0); s.DistinctIPs <= 16 || s.DistinctPrefixes <= 16 || s.DistinctASes <= 16 {
		t.Fatalf("wide day: %d addresses, %d prefixes, %d ASes; want over 16 each", s.DistinctIPs, s.DistinctPrefixes, s.DistinctASes)
	}
}
