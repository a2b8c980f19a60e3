package mobility

import (
	"cmp"
	"slices"

	"locind/internal/netaddr"
)

// DayStats summarizes one user-day: distinct locations visited, transition
// counts, and the dominant-location dwell fractions of §6.3.1, at each of
// the three granularities the paper plots (IP address, routable prefix, AS).
type DayStats struct {
	DistinctIPs      int
	DistinctPrefixes int
	DistinctASes     int

	IPTransitions     int
	PrefixTransitions int
	ASTransitions     int

	// Dominant-location dwell fractions (time at the single location where
	// the user spent the most time, divided by total observed time).
	DominantIPFrac     float64
	DominantPrefixFrac float64
	DominantASFrac     float64

	// DominantAS is the AS where the user spent the most time (the lowest
	// such AS on a tie). ASDwell holds one entry per AS visited that day,
	// sorted by AS, with the fraction of the day's observed time spent
	// there; the stretch analysis (§6.3) uses it to weight AS-hop
	// displacement.
	DominantAS int
	ASDwell    []ASFrac
}

// ASFrac is one AS of a user-day and the fraction of the day spent there.
type ASFrac struct {
	AS   int
	Frac float64
}

// dwell is the time a user-day spent at one location key.
type dwell[K comparable] struct {
	key K
	t   float64
}

// addDwell adds t to k's entry in ds, appending the entry on k's first
// visit. A day has few distinct keys, so a linear scan is all it takes.
func addDwell[K comparable](ds []dwell[K], k K, t float64) []dwell[K] {
	for i := range ds {
		if ds[i].key == k {
			ds[i].t += t
			return ds
		}
	}
	return append(ds, dwell[K]{k, t})
}

// maxDwell is the largest time in ds, 0 for none.
func maxDwell[K comparable](ds []dwell[K]) float64 {
	m := 0.0
	for _, d := range ds {
		if d.t > m {
			m = d.t
		}
	}
	return m
}

// DayStats computes statistics for one day of a user trace. Days with no
// visits return the zero DayStats (DominantAS -1). It sums the day's dwell
// per address, prefix and AS on the stack for up to 16 distinct keys each,
// so ASDwell is its one allocation.
func (ut *UserTrace) DayStats(day int) DayStats {
	s := DayStats{DominantAS: -1}
	var ipBuf [16]dwell[netaddr.Addr]
	var pfxBuf [16]dwell[netaddr.Prefix]
	var asBuf [16]dwell[int]
	ipTime, pfxTime, asTime := ipBuf[:0], pfxBuf[:0], asBuf[:0]
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
		ipTime = addDwell(ipTime, v.Loc.Addr, v.Dur)
		pfxTime = addDwell(pfxTime, v.Loc.Prefix, v.Dur)
		asTime = addDwell(asTime, v.Loc.AS, v.Dur)
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
	slices.SortFunc(asTime, func(a, b dwell[int]) int { return cmp.Compare(a.key, b.key) })
	maxAS := 0.0
	s.ASDwell = make([]ASFrac, len(asTime))
	for i, d := range asTime {
		s.ASDwell[i] = ASFrac{d.key, d.t / total}
		// Visiting in AS order, a strict > leaves a tie to the lowest AS.
		if d.t > maxAS {
			maxAS = d.t
			s.DominantAS = d.key
		}
	}
	s.DominantIPFrac = maxDwell(ipTime) / total
	s.DominantPrefixFrac = maxDwell(pfxTime) / total
	s.DominantASFrac = maxAS / total
	return s
}

// UserAverages is the per-user daily average used on the x-axes of
// Figures 6 and 7.
type UserAverages struct {
	User int

	AvgDistinctIPs      float64
	AvgDistinctPrefixes float64
	AvgDistinctASes     float64

	AvgIPTransitions     float64
	AvgPrefixTransitions float64
	AvgASTransitions     float64
}

// PerUserDailyAverages computes, for each user, the average-per-day distinct
// location counts and transition counts across all days the user appears.
func (dt *DeviceTrace) PerUserDailyAverages() []UserAverages {
	out := make([]UserAverages, 0, len(dt.Users))
	for ui := range dt.Users {
		u := &dt.Users[ui]
		var agg UserAverages
		agg.User = u.ID
		days := 0
		for d := 0; d < dt.Days; d++ {
			s := u.DayStats(d)
			if s.DistinctIPs == 0 {
				continue
			}
			days++
			agg.AvgDistinctIPs += float64(s.DistinctIPs)
			agg.AvgDistinctPrefixes += float64(s.DistinctPrefixes)
			agg.AvgDistinctASes += float64(s.DistinctASes)
			agg.AvgIPTransitions += float64(s.IPTransitions)
			agg.AvgPrefixTransitions += float64(s.PrefixTransitions)
			agg.AvgASTransitions += float64(s.ASTransitions)
		}
		if days == 0 {
			continue
		}
		f := float64(days)
		agg.AvgDistinctIPs /= f
		agg.AvgDistinctPrefixes /= f
		agg.AvgDistinctASes /= f
		agg.AvgIPTransitions /= f
		agg.AvgPrefixTransitions /= f
		agg.AvgASTransitions /= f
		out = append(out, agg)
	}
	return out
}

// DominantFractions collects, over every user-day with observations, the
// dominant-location dwell fractions — the sample plotted in Figure 9.
func (dt *DeviceTrace) DominantFractions() (ip, prefix, as []float64) {
	for ui := range dt.Users {
		u := &dt.Users[ui]
		for d := 0; d < dt.Days; d++ {
			s := u.DayStats(d)
			if s.DistinctIPs == 0 {
				continue
			}
			ip = append(ip, s.DominantIPFrac)
			prefix = append(prefix, s.DominantPrefixFrac)
			as = append(as, s.DominantASFrac)
		}
	}
	return ip, prefix, as
}

// DominantPair is a (dominant, visited) AS pair weighted by dwell time,
// feeding the §6.3 displacement-from-home analysis.
type DominantPair struct {
	User       int
	DominantAS int
	VisitedAS  int
	DwellFrac  float64 // fraction of that user-day spent at VisitedAS
}

// DominantDisplacements lists, for every user-day, each non-dominant AS the
// user visited together with its dwell fraction.
func (dt *DeviceTrace) DominantDisplacements() []DominantPair {
	var out []DominantPair
	for ui := range dt.Users {
		u := &dt.Users[ui]
		for d := 0; d < dt.Days; d++ {
			s := u.DayStats(d)
			if s.DominantAS < 0 {
				continue
			}
			for _, a := range s.ASDwell {
				if a.AS == s.DominantAS {
					continue
				}
				out = append(out, DominantPair{
					User:       u.ID,
					DominantAS: s.DominantAS,
					VisitedAS:  a.AS,
					DwellFrac:  a.Frac,
				})
			}
		}
	}
	return out
}
