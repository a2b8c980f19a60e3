package mobility

import (
	"math/rand"
	"sort"
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
func IMAPMoveEvents(dt *DeviceTrace, checksPerHour float64, rng *rand.Rand) []MoveEvent {
	if checksPerHour <= 0 {
		return nil
	}
	var out []MoveEvent
	for ui := range dt.Users {
		u := &dt.Users[ui]
		if len(u.Visits) == 0 {
			continue
		}
		start := u.Visits[0].Start
		end := u.Visits[len(u.Visits)-1].Start + u.Visits[len(u.Visits)-1].Dur

		// Poisson process over the whole observation window.
		n := poisson(checksPerHour*(end-start), rng)
		times := make([]float64, n)
		for i := range times {
			times[i] = start + float64(rng.Float64()*(end-start)) // no fused multiply-add (see simulateDayInto)
		}
		sort.Float64s(times)

		var havePrev bool
		var prev Location
		vi := 0
		for _, t := range times {
			for vi+1 < len(u.Visits) && u.Visits[vi].Start+u.Visits[vi].Dur <= t {
				vi++
			}
			cur := u.Visits[vi].Loc
			if havePrev && cur.Addr != prev.Addr {
				out = append(out, MoveEvent{
					User: u.ID,
					Day:  int(t / 24),
					From: prev,
					To:   cur,
				})
			}
			prev = cur
			havePrev = true
		}
	}
	return out
}
