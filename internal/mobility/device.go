// Package mobility generates and analyzes the two measured workloads of the
// paper: device mobility across network locations (the NomadLog dataset of
// §4/§6) and the IMAP-style proxy workload used in the §6.2.2 sensitivity
// analysis. Content mobility timelines live in internal/cdn, which owns the
// address-assignment machinery they need.
//
// The device generator is a per-user semi-Markov dwell model over a small
// pool of access networks (home, work, cellular, occasional other WiFi)
// with heavy-tailed per-user switching rates. Its knobs are calibrated so
// the aggregate statistics match what the paper reports for its 372 users:
// median 2 ASes / 2 prefixes / 3 IP addresses visited per day, median 1 AS
// and 3 IP transitions per day, more than 20% of users exceeding 10 IP
// addresses per day, and a dominant location holding ~70% (IP) / ~85% (AS)
// of the median day.
package mobility

import (
	"fmt"
	"math"
	"math/rand"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/netaddr"
	"locind/internal/stats"
)

// NetType is the access technology of a connectivity event.
type NetType uint8

// Access network types logged by the NomadLog schema.
const (
	WiFi NetType = iota
	Cellular
)

// String returns the log-format name of the network type.
func (n NetType) String() string {
	if n == Cellular {
		return "cellular"
	}
	return "wifi"
}

// Location is a network attachment point: the public-facing address the
// device observes, the covering routable prefix, and the access AS.
type Location struct {
	AS     int
	Prefix netaddr.Prefix
	Addr   netaddr.Addr
	Net    NetType
}

// Visit is one dwell interval at a location. Times are in hours from the
// start of the trace; Start+Dur never crosses a day boundary (the generator
// splits visits at midnight so per-day accounting stays exact).
type Visit struct {
	Start float64
	Dur   float64
	Loc   Location
}

// Day returns the trace day this visit belongs to.
func (v Visit) Day() int { return int(v.Start / 24) }

// UserTrace is the full trace of a single device.
type UserTrace struct {
	ID     int
	Region asgraph.Region
	HomeAS int
	Visits []Visit
}

// DeviceTrace is the NomadLog-equivalent dataset.
type DeviceTrace struct {
	Days  int
	Users []UserTrace
}

// Day appends the visits of dt.Users[user] that start on the given day onto
// buf — FleetGen.Day's replay counterpart, so a trace streams through the
// same day-by-day consumers as a generated fleet; st and sc go unused.
func (dt *DeviceTrace) Day(user, day int, st *UserState, buf []Visit, sc *DayScratch) []Visit {
	for _, v := range dt.Users[user].Visits {
		if v.Day() == day {
			buf = append(buf, v)
		}
	}
	return buf
}

// MoveEvent is a single address transition: a user, the day of the move,
// and two addresses — the device left From and attached at To. These are
// the mobility events whose update cost §6.2 evaluates against router FIBs.
type MoveEvent struct {
	User     int
	Day      int
	From, To netaddr.Addr
}

// MoveEvents flattens the trace into the chronological list of address
// transitions per user (visits whose address differs from the previous
// visit's address). It counts the transitions first and fills one slice of
// exactly that length.
func (dt *DeviceTrace) MoveEvents() []MoveEvent {
	n := 0
	for ui := range dt.Users {
		n += addrChanges(dt.Users[ui].Visits)
	}
	out := make([]MoveEvent, 0, n)
	for ui := range dt.Users {
		u := &dt.Users[ui]
		for i := 1; i < len(u.Visits); i++ {
			prev, cur := &u.Visits[i-1], &u.Visits[i]
			if prev.Loc.Addr == cur.Loc.Addr {
				continue
			}
			out = append(out, MoveEvent{User: u.ID, Day: cur.Day(), From: prev.Loc.Addr, To: cur.Loc.Addr})
		}
	}
	return out
}

// addrChanges counts the visits whose address differs from the previous
// visit's: the moves MoveEvents lists for these visits.
func addrChanges(vs []Visit) int {
	n := 0
	for i := 1; i < len(vs); i++ {
		if vs[i-1].Loc.Addr != vs[i].Loc.Addr {
			n++
		}
	}
	return n
}

// DeviceConfig parameterizes device-trace generation.
type DeviceConfig struct {
	Users int
	Days  int

	// EyeballsPerRegion is the number of stub ASes per region that serve as
	// home/work access networks; CellularPerRegion is the number of mobile
	// carriers per region. Small pools are deliberate: real users cluster
	// onto a handful of large eyeball networks, and the recurrence of the
	// same AS pairs across events is what keeps router update rates in the
	// paper's single-digit-to-14% band.
	EyeballsPerRegion  int
	CellularPerRegion  int
	OtherWiFiPerRegion int

	// User class mix. Commuters attach at a workplace network on weekdays;
	// homebodies rarely leave home; cellular-primary users live on LTE with
	// carrier-grade-NAT address churn (they are the >10-IPs-per-day tail,
	// which the paper observes for over 20% of users); the remainder are
	// casual users with occasional outings.
	CommuterFrac    float64
	HomebodyFrac    float64
	CellPrimaryFrac float64

	// CommuteCellProb is the probability that a commute leg attaches to
	// cellular at all (a short commute with the screen off often does not).
	CommuteCellProb float64

	// CellChurnHours is the mean time between public-address changes while
	// camped on cellular (CGNAT re-mapping).
	CellChurnHours float64

	// BounceMu/BounceSigma shape the lognormal per-user rate of extra
	// WiFi<->cellular bounces per day.
	BounceMu    float64
	BounceSigma float64

	// CellSessionReuse is the probability that a cellular reattachment
	// within the same day keeps its previous public address (carrier-grade
	// NAT session persistence).
	CellSessionReuse float64

	// HomeDHCPDaily is the per-day probability that the home address
	// changes (DHCP lease turnover).
	HomeDHCPDaily float64

	// RegionWeights places users in regions; the default mix matches the
	// paper's user base (US, Europe, South America).
	RegionWeights map[asgraph.Region]float64
}

// DefaultDeviceConfig returns the calibrated configuration used in the
// experiments.
func DefaultDeviceConfig() DeviceConfig {
	return DeviceConfig{
		Users:              372,
		Days:               28,
		EyeballsPerRegion:  24,
		CellularPerRegion:  3,
		OtherWiFiPerRegion: 12,
		CommuterFrac:       0.45,
		HomebodyFrac:       0.12,
		CellPrimaryFrac:    0.22,
		CommuteCellProb:    0.25,
		CellChurnHours:     1.2,
		BounceMu:           math.Log(0.3),
		BounceSigma:        1.3,
		CellSessionReuse:   0.45,
		HomeDHCPDaily:      0.03,
		RegionWeights: map[asgraph.Region]float64{
			asgraph.NorthAmerica: 0.55,
			asgraph.Europe:       0.28,
			asgraph.SouthAmerica: 0.17,
		},
	}
}

// userClass buckets users by their daily rhythm.
type userClass uint8

const (
	classCasual userClass = iota
	classCommuter
	classHomebody
	classCellPrimary
)

// userProfile is the stable per-user state the day simulator draws on.
type userProfile struct {
	region     asgraph.Region
	class      userClass
	home       Location
	work       Location
	cellAS     int
	cellBase   uint64 // base host index of the user's CGNAT /24 pool
	otherWiFis []Location
	bounceRate float64 // mean extra bounces per day
	wakeJitter float64
}

// GenerateDeviceTrace synthesizes the NomadLog-equivalent trace over the
// given internetwork and address plan.
func GenerateDeviceTrace(g *asgraph.Graph, pt *bgp.PrefixTable, cfg DeviceConfig, rng *rand.Rand) (*DeviceTrace, error) {
	if cfg.Users <= 0 || cfg.Days <= 0 {
		return nil, fmt.Errorf("mobility: need positive users and days, have %d users %d days", cfg.Users, cfg.Days)
	}
	pools, err := buildAccessPools(g, cfg)
	if err != nil {
		return nil, err
	}
	dt := &DeviceTrace{Days: cfg.Days, Users: make([]UserTrace, 0, cfg.Users)}
	var segScratch []daySeg
	for id := 0; id < cfg.Users; id++ {
		prof := newProfile(pools, pt, cfg, rng)
		ut := UserTrace{ID: id, Region: prof.region, HomeAS: prof.home.AS}
		cell := cellState{}
		for day := 0; day < cfg.Days; day++ {
			// DHCP turnover of the home address.
			if day > 0 && rng.Float64() < cfg.HomeDHCPDaily {
				prof.home = locIn(pt, prof.home.AS, randomHostIn(pt, prof.home.AS, rng), WiFi)
			}
			ut.Visits = simulateDayInto(ut.Visits, prof, pt, cfg, day, &cell, rng, &segScratch)
		}
		ut.Visits = mergeAdjacent(ut.Visits)
		dt.Users = append(dt.Users, ut)
	}
	return dt, nil
}

// accessPools are the per-region AS pools devices attach through.
type accessPools struct {
	eyeballs map[asgraph.Region][]int
	cellular map[asgraph.Region][]int
	wifi     map[asgraph.Region][]int
}

func buildAccessPools(g *asgraph.Graph, cfg DeviceConfig) (*accessPools, error) {
	p := &accessPools{
		eyeballs: map[asgraph.Region][]int{},
		cellular: map[asgraph.Region][]int{},
		wifi:     map[asgraph.Region][]int{},
	}
	for region := range cfg.RegionWeights {
		stubs := g.StubsInRegion(region)
		need := cfg.EyeballsPerRegion + cfg.CellularPerRegion + cfg.OtherWiFiPerRegion
		if len(stubs) < need {
			return nil, fmt.Errorf("mobility: region %v has %d stubs, need %d", region, len(stubs), need)
		}
		// Deterministic slicing: the first stubs become eyeballs, then
		// carriers, then public-WiFi venues.
		p.eyeballs[region] = stubs[:cfg.EyeballsPerRegion]
		p.cellular[region] = stubs[cfg.EyeballsPerRegion : cfg.EyeballsPerRegion+cfg.CellularPerRegion]
		p.wifi[region] = stubs[cfg.EyeballsPerRegion+cfg.CellularPerRegion : need]
	}
	return p, nil
}

func randomHostIn(pt *bgp.PrefixTable, as int, rng *rand.Rand) netaddr.Addr {
	return pt.AddrIn(as, uint64(rng.Intn(1<<16)))
}

// locIn builds a Location in the given AS. The routable prefix recorded is
// the /24 containing the address (matching how the paper counts
// prefix-level transitions from BGP-visible prefixes).
func locIn(pt *bgp.PrefixTable, as int, addr netaddr.Addr, nt NetType) Location {
	return Location{
		AS:     as,
		Prefix: netaddr.MakePrefix(addr, 24),
		Addr:   addr,
		Net:    nt,
	}
}

func pickRegion(cfg DeviceConfig, rng *rand.Rand) asgraph.Region {
	sum := 0.0
	for _, w := range cfg.RegionWeights {
		sum += w
	}
	x := rng.Float64() * sum
	// Iterate regions in a fixed order for determinism.
	for r := asgraph.Region(0); r < 8; r++ {
		w, ok := cfg.RegionWeights[r]
		if !ok {
			continue
		}
		if x < w {
			return r
		}
		x -= w
	}
	return asgraph.NorthAmerica
}

func newProfile(pools *accessPools, pt *bgp.PrefixTable, cfg DeviceConfig, rng *rand.Rand) *userProfile {
	prof := new(userProfile)
	fillProfile(prof, pools, pt, cfg, rng)
	return prof
}

// fillProfile regenerates a profile in place, reusing prof's otherWiFis
// backing so a scratch profile can be refilled per user without allocating.
// The rng draw order is pinned: for a freshly seeded rng it reproduces
// exactly the profile newProfile has always built.
func fillProfile(prof *userProfile, pools *accessPools, pt *bgp.PrefixTable, cfg DeviceConfig, rng *rand.Rand) {
	region := pickRegion(cfg, rng)
	eyeballs := pools.eyeballs[region]
	homeAS := eyeballs[rng.Intn(len(eyeballs))]
	prof.region = region
	prof.home = locIn(pt, homeAS, randomHostIn(pt, homeAS, rng), WiFi)
	prof.work = Location{}
	prof.cellAS = pools.cellular[region][rng.Intn(len(pools.cellular[region]))]
	prof.cellBase = uint64(rng.Intn(256)) << 8 // one /24 inside the carrier block
	// The product is rounded before the add (see simulateDayInto).
	prof.bounceRate = stats.Exp(cfg.BounceMu + float64(cfg.BounceSigma*rng.NormFloat64()))
	prof.wakeJitter = rng.Float64()
	switch x := rng.Float64(); {
	case x < cfg.HomebodyFrac:
		prof.class = classHomebody
		prof.bounceRate *= 0.1
	case x < cfg.HomebodyFrac+cfg.CommuterFrac:
		prof.class = classCommuter
		workAS := eyeballs[rng.Intn(len(eyeballs))]
		prof.work = locIn(pt, workAS, randomHostIn(pt, workAS, rng), WiFi)
	case x < cfg.HomebodyFrac+cfg.CommuterFrac+cfg.CellPrimaryFrac:
		prof.class = classCellPrimary
	default:
		prof.class = classCasual
	}
	prof.otherWiFis = prof.otherWiFis[:0]
	nOther := 1 + rng.Intn(3)
	for i := 0; i < nOther; i++ {
		wifiAS := pools.wifi[region][rng.Intn(len(pools.wifi[region]))]
		prof.otherWiFis = append(prof.otherWiFis, locIn(pt, wifiAS, randomHostIn(pt, wifiAS, rng), WiFi))
	}
}

// cellAddr mints an address in the user's stable CGNAT /24 pool, which keeps
// prefix-level diversity tied to AS-level diversity the way BGP-visible
// prefixes are in the NomadLog data.
func (prof *userProfile) cellAddr(pt *bgp.PrefixTable, rng *rand.Rand) netaddr.Addr {
	return pt.AddrIn(prof.cellAS, prof.cellBase|uint64(rng.Intn(256)))
}

// cellState tracks carrier-grade-NAT address persistence across a user's
// cellular attachments.
type cellState struct {
	addr  netaddr.Addr
	valid bool
	day   int
}

func (cs *cellState) attach(prof *userProfile, pt *bgp.PrefixTable, day int, reuse float64, rng *rand.Rand) netaddr.Addr {
	if cs.valid && cs.day == day && rng.Float64() < reuse {
		return cs.addr
	}
	cs.addr = prof.cellAddr(pt, rng)
	cs.valid = true
	cs.day = day
	return cs.addr
}

// simulateDayInto lays out one day of visits for a user, appending them to
// buf (which it returns, grown). All times are hours within
// [day*24, day*24+24). segScratch is the reusable segment buffer the day
// schedule is laid out in; a nil *segScratch slice works and simply grows to
// the day's high-water mark. The rng draw order is identical to the original
// allocate-per-day formulation, so generated traces are byte-for-byte
// unchanged.
func simulateDayInto(buf []Visit, prof *userProfile, pt *bgp.PrefixTable, cfg DeviceConfig, day int, cell *cellState, rng *rand.Rand, segScratch *[]daySeg) []Visit {
	// Every product here is rounded with float64(...) before it is added, so
	// targets that fuse multiply-adds (arm64, ppc64le, s390x, riscv64) lay
	// out the same day as amd64; day*24 is an exact int product, which
	// nothing can fuse into base+prev below.
	base := float64(day * 24)
	weekend := day%7 >= 5
	cellLoc := func() Location {
		addr := cell.attach(prof, pt, day, cfg.CellSessionReuse, rng)
		return locIn(pt, prof.cellAS, addr, Cellular)
	}

	segs := (*segScratch)[:0]
	switch {
	case prof.class == classCommuter && !weekend:
		leave := 7.8 + prof.wakeJitter + float64(0.5*rng.NormFloat64())
		arrive := leave + 0.4 + float64(0.3*rng.Float64())
		depart := 16.0 + float64(1.2*rng.Float64())
		arriveHome := depart + 0.4 + float64(0.3*rng.Float64())
		// A short commute with the screen off may never attach to cellular.
		if rng.Float64() < cfg.CommuteCellProb {
			segs = append(segs, daySeg{prof.home, clampHour(leave)}, daySeg{cellLoc(), clampHour(arrive)})
		} else {
			segs = append(segs, daySeg{prof.home, clampHour(arrive)})
		}
		if rng.Float64() < cfg.CommuteCellProb {
			segs = append(segs, daySeg{prof.work, clampHour(depart)}, daySeg{cellLoc(), clampHour(arriveHome)})
		} else {
			segs = append(segs, daySeg{prof.work, clampHour(arriveHome)})
		}
		segs = append(segs, daySeg{prof.home, 24})

	case prof.class == classHomebody:
		segs = append(segs, daySeg{prof.home, 24})
		if rng.Float64() < 0.25 { // the occasional errand
			out := 10 + float64(6*rng.Float64())
			segs = append(segs[:0],
				daySeg{prof.home, clampHour(out)},
				daySeg{cellLoc(), clampHour(out + 0.5 + float64(rng.Float64()))},
				daySeg{prof.home, 24},
			)
		}

	case prof.class == classCellPrimary:
		// Camped on LTE through the waking day with CGNAT address churn;
		// home WiFi overnight. High IP churn, low AS churn — the mechanism
		// behind the paper's >10-IPs-a-day users.
		wake := 7 + 2*prof.wakeJitter
		sleep := 20.5 + float64(3*rng.Float64())
		segs = append(segs, daySeg{prof.home, clampHour(wake)})
		t := wake
		for t < sleep {
			next := t + float64(cfg.CellChurnHours*(0.3+float64(1.4*rng.Float64())))
			if next > sleep {
				next = sleep
			}
			addr := prof.cellAddr(pt, rng)
			segs = append(segs, daySeg{locIn(pt, prof.cellAS, addr, Cellular), clampHour(next)})
			t = next
		}
		segs = append(segs, daySeg{prof.home, 24})

	default:
		// Casual user or commuter weekend: home with outings.
		segs = append(segs, daySeg{prof.home, 24})
		if rng.Float64() < 0.55 {
			out := 9 + float64(8*rng.Float64())
			venue := prof.otherWiFis[rng.Intn(len(prof.otherWiFis))]
			back := out + 1 + float64(2.5*rng.Float64())
			if rng.Float64() < 0.5 {
				segs = append(segs[:0],
					daySeg{prof.home, clampHour(out)},
					daySeg{cellLoc(), clampHour(out + 0.3)},
					daySeg{venue, clampHour(back)},
					daySeg{cellLoc(), clampHour(back + 0.3)},
					daySeg{prof.home, 24},
				)
			} else {
				segs = append(segs[:0],
					daySeg{prof.home, clampHour(out)},
					daySeg{venue, clampHour(back)},
					daySeg{prof.home, 24},
				)
			}
		}
	}

	// Extra WiFi<->cellular bounces: each splits a WiFi segment with a
	// short cellular interlude.
	nBounce := poisson(prof.bounceRate, rng)
	const maxBounce = 24
	if nBounce > maxBounce {
		nBounce = maxBounce
	}
	for b := 0; b < nBounce; b++ {
		at := 1 + float64(22*rng.Float64())
		dur := 0.05 + float64(0.3*rng.Float64())
		segs = insertBounce(segs, at, dur, cellLoc())
	}
	*segScratch = segs[:0]

	// Materialize visits.
	prev := 0.0
	for _, s := range segs {
		if s.end <= prev {
			continue
		}
		buf = append(buf, Visit{Start: base + prev, Dur: s.end - prev, Loc: s.loc})
		prev = s.end
	}
	return buf
}

func clampHour(h float64) float64 {
	if h < 0 {
		return 0
	}
	if h > 24 {
		return 24
	}
	return h
}

// daySeg is a within-day schedule segment: the location occupied until the
// given hour of the day.
type daySeg struct {
	loc Location
	end float64
}

// insertBounce splits the segment covering hour `at` with a cellular
// interlude of the given duration, if the segment is WiFi and long enough.
// The split happens in place (segments after the split point shift right by
// two), so repeated bounces reuse the same backing array.
func insertBounce(segs []daySeg, at, dur float64, cell Location) []daySeg {
	start := 0.0
	for i, s := range segs {
		if at >= start && at+dur < s.end && s.loc.Net == WiFi {
			segs = append(segs, daySeg{}, daySeg{})
			copy(segs[i+3:], segs[i+1:])
			segs[i] = daySeg{s.loc, at}
			segs[i+1] = daySeg{cell, at + dur}
			segs[i+2] = daySeg{s.loc, s.end}
			return segs
		}
		start = s.end
	}
	return segs
}

// mergeAdjacent coalesces consecutive visits at the same address with no
// gap, which arise when a bounce lands at a segment boundary.
func mergeAdjacent(vs []Visit) []Visit {
	return mergeAdjacentFrom(vs, 0)
}

// mergeAdjacentFrom is mergeAdjacent restricted to vs[lo:], compacting in
// place. The streaming generator appends one user-day at a time onto a
// shared arena, so merging must never reach across the region boundary into
// another user's visits.
func mergeAdjacentFrom(vs []Visit, lo int) []Visit {
	if len(vs)-lo < 1 {
		return vs
	}
	out := vs[:lo+1]
	for _, v := range vs[lo+1:] {
		last := &out[len(out)-1]
		if v.Loc.Addr == last.Loc.Addr && v.Day() == last.Day() &&
			math.Abs(last.Start+last.Dur-v.Start) < 1e-9 {
			last.Dur += v.Dur
			continue
		}
		out = append(out, v)
	}
	return out
}

// poisson draws a Poisson variate with the given mean via inversion for
// small means and a normal approximation for large ones.
func poisson(mean float64, rng *rand.Rand) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(math.Round(mean + float64(math.Sqrt(mean)*rng.NormFloat64()))) // no fused multiply-add (see simulateDayInto)
		if v < 0 {
			v = 0
		}
		return v
	}
	l := stats.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
