// Streaming fleet generation. GenerateDeviceTrace materializes every visit
// of every user up front, which is fine for the paper's 372-user trace but
// not for the million-device nomad engine (internal/nomad/engine): at that
// scale the fleet's full trace is tens of gigabytes. FleetGen instead
// generates one user-day at a time from seeds derived per (user, day), so a
// caller holding only a few bytes of persistent state per user (UserState)
// can stream an arbitrarily large fleet at bounded memory.
//
// The derived-seed model intentionally differs from GenerateDeviceTrace's
// single shared rng: there, user N's draws depend on every draw users
// 0..N-1 made, which forces sequential generation of the whole fleet.
// Deriving an independent stream per (user, day) makes any user's any day
// computable in O(1) — the property sharding and replay both need. The
// per-day statistics (dwell structure, churn rates, class mix) are the same
// calibrated model either way; only the random stream assignment differs.
package mobility

import (
	"fmt"
	"math/rand"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/netaddr"
	"locind/internal/stats"
)

// deriveSeed mixes the fleet seed with a user index and a stream tag into
// one well-spread 64-bit state. stream is either a day number or the
// profile tag (^uint64(0), which no day reaches).
func deriveSeed(seed int64, user, stream uint64) uint64 {
	h := stats.Mix64(uint64(seed) + 0x9e3779b97f4a7c15)
	h = stats.Mix64(h ^ (user + 0x9e3779b97f4a7c15))
	return stats.Mix64(h ^ (stream + 0x9e3779b97f4a7c15))
}

// profileStream is the stream tag reserved for profile regeneration.
const profileStream = ^uint64(0)

// UserState is the persistent cross-day state of one streamed user: the
// home address as evolved by DHCP turnover and the carrier-grade-NAT
// session. The zero value is a brand-new user; at 16 bytes it is what makes
// million-user fleets affordable.
type UserState struct {
	homeAddr netaddr.Addr
	homeSet  bool
	cell     cellState
}

// DayScratch holds the reusable buffers one generation stream needs: the
// derived-seed rng, the regenerated profile, and the day-schedule segments.
// It is not safe for concurrent use; give each shard its own.
type DayScratch struct {
	src  stats.SplitMix64
	rng  *rand.Rand
	prof userProfile
	segs []daySeg
}

// NewDayScratch builds a scratch ready for FleetGen.Day.
func NewDayScratch() *DayScratch {
	sc := &DayScratch{}
	sc.rng = rand.New(&sc.src)
	return sc
}

// FleetGen generates per-user mobility days on demand. It is immutable
// after construction and safe to share across shards (all mutable state
// lives in UserState and DayScratch).
type FleetGen struct {
	pools *accessPools
	pt    *bgp.PrefixTable
	cfg   DeviceConfig
	seed  int64
}

// NewFleetGen validates the config and snapshots the access pools. cfg.Users
// is ignored — the fleet size is whatever range of user indices the caller
// asks Day for.
func NewFleetGen(g *asgraph.Graph, pt *bgp.PrefixTable, cfg DeviceConfig, seed int64) (*FleetGen, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("mobility: need positive days, have %d", cfg.Days)
	}
	pools, err := buildAccessPools(g, cfg)
	if err != nil {
		return nil, err
	}
	return &FleetGen{pools: pools, pt: pt, cfg: cfg, seed: seed}, nil
}

// Day appends user's visits for the given day (hours [24d, 24d+24), tiling
// the day with at least one visit) onto buf and returns it. st carries the
// user's cross-day state and must be threaded through consecutive days in
// order, starting from the zero value at day 0. The result is a pure
// function of (seed, user, day, st): same inputs, byte-identical visits —
// the property the engine's same-seed soak replay rests on.
func (f *FleetGen) Day(user, day int, st *UserState, buf []Visit, sc *DayScratch) []Visit {
	// Regenerate the user's stable profile from its own stream, then
	// overlay the evolved home address.
	sc.src.Seed(int64(deriveSeed(f.seed, uint64(user), profileStream)))
	fillProfile(&sc.prof, f.pools, f.pt, f.cfg, sc.rng)
	if st.homeSet {
		sc.prof.home = locIn(f.pt, sc.prof.home.AS, st.homeAddr, WiFi)
	}

	// The day's own stream: DHCP turnover first, then the schedule.
	sc.src.Seed(int64(deriveSeed(f.seed, uint64(user), uint64(day))))
	if day > 0 && sc.rng.Float64() < f.cfg.HomeDHCPDaily {
		sc.prof.home = locIn(f.pt, sc.prof.home.AS, randomHostIn(f.pt, sc.prof.home.AS, sc.rng), WiFi)
	}
	st.homeAddr, st.homeSet = sc.prof.home.Addr, true

	lo := len(buf)
	buf = simulateDayInto(buf, &sc.prof, f.pt, f.cfg, day, &st.cell, sc.rng, &sc.segs)
	return mergeAdjacentFrom(buf, lo)
}
