// The race detector's runtime allocates beside the program's own objects,
// so the ceilings below hold in a plain build only.

//go:build !race

package mobility

import (
	"math/rand"
	"testing"
)

// TestMoveEventsAllocCeiling: MoveEvents counts the moves first and fills
// one slice of exactly that length, so a call makes one allocation,
// measured on amd64 and on 386. An allocation count does not vary with the
// word size, so the ceiling has no margin. Appending the moves to an empty
// slice makes 13 allocations per call on this trace.
func TestMoveEventsAllocCeiling(t *testing.T) {
	dt := genTrace(t, 60, 6, 31)
	if got := testing.AllocsPerRun(20, func() { dt.MoveEvents() }); got > 1 {
		t.Fatalf("MoveEvents made %.0f allocations per call, ceiling 1", got)
	}
}

// TestDayStatsAllocCeiling: DayStats sums dwell on the stack for up to 16
// distinct addresses, prefixes and ASes, so a user-day within that makes at
// most one allocation (its ASDwell) and an empty day none, measured on
// amd64 and on 386 (one day of this trace exceeds 16 and is skipped); as
// above, the ceiling has no margin. Summing in a map per granularity makes
// 2, 5 or 7 allocations on each of these days.
func TestDayStatsAllocCeiling(t *testing.T) {
	dt := genTrace(t, 60, 6, 31)
	days := 0
	for ui := range dt.Users {
		u := &dt.Users[ui]
		for d := 0; d <= dt.Days; d++ {
			s := u.DayStats(d)
			if s.DistinctIPs > 16 || s.DistinctPrefixes > 16 || s.DistinctASes > 16 {
				continue
			}
			ceiling := 1.0
			if s.DistinctIPs == 0 {
				ceiling = 0
			} else {
				days++
			}
			if got := testing.AllocsPerRun(5, func() { u.DayStats(d) }); got > ceiling {
				t.Fatalf("user %d day %d (%d addresses): DayStats made %.0f allocations, ceiling %.0f",
					u.ID, d, s.DistinctIPs, got, ceiling)
			}
		}
	}
	if days < 300 {
		t.Fatalf("only %d non-empty user-days within 16 distinct locations measured", days)
	}
}

// TestIMAPMoveEventsAllocCeiling: IMAPMoveEvents sizes its output to the
// device-level move count and keeps one buffer of check times for every
// user, so a call makes the same two allocations at 40 users as at 400,
// measured on amd64 and on 386. The ceiling of 3 leaves one for the
// runtime's own allocations when a collection starts in the measured window
// (on 386 a 5-run measurement read 3 that way) or for a times buffer that
// must grow past its sizing. A times buffer per user and an output grown by
// append make 51 allocations per call at 40 users and 420 at 400.
func TestIMAPMoveEventsAllocCeiling(t *testing.T) {
	for _, users := range []int{40, 400} {
		dt := genTrace(t, users, 5, 3)
		rng := rand.New(rand.NewSource(2))
		got := testing.AllocsPerRun(20, func() {
			rng.Seed(2)
			IMAPMoveEvents(dt, 2.0, rng)
		})
		if got > 3 {
			t.Fatalf("%d users: IMAPMoveEvents made %.0f allocations per call, ceiling 3", users, got)
		}
	}
}
