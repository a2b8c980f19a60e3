package mobility

import (
	"sort"

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

	// DominantAS is the AS where the user spent the most time; TimeAwayFromAS
	// maps each visited AS to the fraction of the day spent there, which the
	// stretch analysis (§6.3) uses to weight AS-hop displacement.
	DominantAS int
	ASDwell    map[int]float64
}

// DayStats computes statistics for one day of a user trace. Days with no
// visits return the zero DayStats (DominantAS -1).
func (ut *UserTrace) DayStats(day int) DayStats {
	s := DayStats{DominantAS: -1}
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
			ases := make([]int, 0, len(s.ASDwell))
			for as := range s.ASDwell {
				ases = append(ases, as)
			}
			sort.Ints(ases)
			for _, as := range ases {
				if as == s.DominantAS {
					continue
				}
				out = append(out, DominantPair{
					User:       u.ID,
					DominantAS: s.DominantAS,
					VisitedAS:  as,
					DwellFrac:  s.ASDwell[as],
				})
			}
		}
	}
	return out
}
