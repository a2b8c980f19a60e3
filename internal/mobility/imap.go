package mobility

import (
	"math/rand"
	"slices"

	"locind/internal/netaddr"
)

// IMAPMoveEvents derives the §6.2.2 sensitivity workload: user mobility as
// observed from a single application's vantage (the UMass IMAP servers).
// The mail client polls at Poisson-distributed check times; each check
// observes the device's current attachment, and a mobility event is a
// change of observed address between consecutive checks.
//
// Note the deliberate difference from MoveEvents: short dwells between two
// checks are invisible, and a check during a brief cellular interlude makes
// that interlude look like the whole story — exactly how an
// application-level trace distorts device mobility. The paper found the two
// workloads' per-router update rates correlate at 0.88 despite this.
//
// A check sees a move only where the device's address changed since the
// previous check, so a user's events never outnumber its MoveEvents: out is
// sized to that bound once. One buffer of check times serves every user,
// sized for twice the longest window's mean count plus 16, which a Poisson
// draw all but never exceeds (it grows if one does).
func IMAPMoveEvents(dt *DeviceTrace, checksPerHour float64, rng *rand.Rand) []MoveEvent {
	if checksPerHour <= 0 {
		return nil
	}
	bound, maxMean := 0, 0.0
	for ui := range dt.Users {
		vs := dt.Users[ui].Visits
		if len(vs) == 0 {
			continue
		}
		bound += addrChanges(vs)
		maxMean = max(maxMean, checksPerHour*(vs[len(vs)-1].Start+vs[len(vs)-1].Dur-vs[0].Start))
	}
	out := make([]MoveEvent, 0, bound)
	times := make([]float64, 0, int(2*maxMean)+16)
	for ui := range dt.Users {
		u := &dt.Users[ui]
		if len(u.Visits) == 0 {
			continue
		}
		start := u.Visits[0].Start
		end := u.Visits[len(u.Visits)-1].Start + u.Visits[len(u.Visits)-1].Dur

		// Poisson process over the whole observation window.
		n := poisson(checksPerHour*(end-start), rng)
		times = slices.Grow(times[:0], n)[:n]
		for i := range times {
			times[i] = start + float64(rng.Float64()*(end-start)) // no fused multiply-add (see simulateDayInto)
		}
		slices.Sort(times)

		var havePrev bool
		var prev netaddr.Addr
		vi := 0
		for _, t := range times {
			for vi+1 < len(u.Visits) && u.Visits[vi].Start+u.Visits[vi].Dur <= t {
				vi++
			}
			cur := u.Visits[vi].Loc.Addr
			if havePrev && cur != prev {
				out = append(out, MoveEvent{User: u.ID, Day: int(t / 24), From: prev, To: cur})
			}
			prev = cur
			havePrev = true
		}
	}
	return out
}
