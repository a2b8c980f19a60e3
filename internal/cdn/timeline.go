package cdn

import (
	"math/rand"
	"slices"

	"locind/internal/netaddr"
	"locind/internal/par"
	"locind/internal/stats"
)

// Event is one content mobility event: at the given hour, the address set
// of the site changed by removing and adding the listed addresses.
type Event struct {
	Hour    int
	Removed []netaddr.Addr
	Added   []netaddr.Addr
}

// Timeline is the hourly Addrs(d, t) history of one site, stored as an
// initial set plus deltas (the full per-hour materialization of a 12K-name,
// multi-week sweep would not fit in memory, and the update-cost analysis
// only ever needs the before/after pair around each event).
type Timeline struct {
	Site    Site
	Hours   int
	Initial []netaddr.Addr
	Events  []Event
}

// EventCount returns the number of mobility events over the whole timeline.
func (tl *Timeline) EventCount() int { return len(tl.Events) }

// setWalker maintains the sorted address set of a timeline replay
// incrementally: the current set is a sorted slice, and each event is
// applied as a single ordered merge of (current minus Removed) with Added
// into a ping-pong buffer. After the buffers warm up to the set's size,
// applying an event allocates nothing — the property the per-event alloc
// regression test pins and the Fig 11b/ablation hot loop depends on.
type setWalker struct {
	cur, next []netaddr.Addr // ping-pong buffers; cur is the live set
	rem, add  []netaddr.Addr // sorted scratch copies of one event's deltas
}

// reset loads the initial set (sorted, deduplicated — the same
// canonicalization the map-based replay produced) and primes the buffers.
func (w *setWalker) reset(initial []netaddr.Addr) {
	w.cur = append(w.cur[:0], initial...)
	slices.Sort(w.cur)
	w.cur = slices.Compact(w.cur)
	if cap(w.next) < len(w.cur) {
		w.next = make([]netaddr.Addr, 0, len(w.cur)+8)
	}
}

// sortAddrs is an insertion sort: event deltas hold one or two addresses,
// where a general-purpose sort only adds overhead.
func sortAddrs(xs []netaddr.Addr) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// emitAddr appends v unless it repeats the previously emitted address; the
// merged stream is non-decreasing, so this single guard deduplicates.
func emitAddr(out []netaddr.Addr, v netaddr.Addr) []netaddr.Addr {
	if n := len(out); n > 0 && out[n-1] == v {
		return out
	}
	return append(out, v)
}

// apply merges one event into the set, returning the after-set (which lives
// in the walker's spare buffer until flip installs it as current). The merge
// reproduces the map semantics exactly: deletions first, then additions, so
// an address that is both removed and re-added stays present.
func (w *setWalker) apply(removed, added []netaddr.Addr) []netaddr.Addr {
	w.rem = append(w.rem[:0], removed...)
	sortAddrs(w.rem)
	w.add = append(w.add[:0], added...)
	sortAddrs(w.add)
	out := w.next[:0]
	cur, add, rem := w.cur, w.add, w.rem
	i, j, k := 0, 0, 0
	for i < len(cur) || j < len(add) {
		switch {
		case i < len(cur) && j < len(add) && cur[i] == add[j]:
			// Present and re-added: present afterwards even if also removed.
			v := cur[i]
			i, j = i+1, j+1
			out = emitAddr(out, v)
		case j >= len(add) || (i < len(cur) && cur[i] < add[j]):
			v := cur[i]
			i++
			for k < len(rem) && rem[k] < v {
				k++
			}
			if k < len(rem) && rem[k] == v {
				continue // removed and not re-added
			}
			out = emitAddr(out, v)
		default:
			v := add[j]
			j++
			out = emitAddr(out, v)
		}
	}
	w.next = out
	return out
}

// flip installs the last after-set as current.
func (w *setWalker) flip() { w.cur, w.next = w.next, w.cur }

// runTo replays events through the given hour (inclusive).
func (w *setWalker) runTo(tl *Timeline, hour int) {
	w.reset(tl.Initial)
	for i := range tl.Events {
		e := &tl.Events[i]
		if e.Hour > hour {
			break
		}
		w.apply(e.Removed, e.Added)
		w.flip()
	}
}

// SetAt reconstructs the address set in effect at the given hour (after any
// event in that hour), sorted ascending. The returned slice is freshly
// allocated and safe to retain.
//
//lint:zeroalloc per replayed event; only the returned clone allocates
func (tl *Timeline) SetAt(hour int) []netaddr.Addr {
	var w setWalker
	w.runTo(tl, hour)
	return slices.Clone(w.cur)
}

// FromSets is SetAt's inverse: it rebuilds the timeline of site whose set at
// each hour h < hours is at(h). at must return a fresh sorted, deduplicated
// slice per call, as SetAt does; the hour-0 one becomes Initial. An event is
// any hour whose set differs from the previous hour's, its Removed and Added
// the sorted differences between the two.
func FromSets(site Site, hours int, at func(hour int) []netaddr.Addr) Timeline {
	prev := at(0)
	tl := Timeline{Site: site, Hours: hours, Initial: prev}
	var b eventBuilder
	var rem, add []netaddr.Addr
	for h := 1; h < hours; h++ {
		cur := at(h)
		rem, add = rem[:0], add[:0]
		i, j := 0, 0
		for i < len(prev) || j < len(cur) {
			switch {
			case j == len(cur) || (i < len(prev) && prev[i] < cur[j]):
				rem = append(rem, prev[i])
				i++
			case i == len(prev) || cur[j] < prev[i]:
				add = append(add, cur[j])
				j++
			default:
				i, j = i+1, j+1
			}
		}
		if len(rem) > 0 || len(add) > 0 {
			b.add(h, rem, add)
		}
		prev = cur
	}
	tl.Events = b.finish()
	return tl
}

// Walk replays the timeline, calling fn with the before/after sets of every
// event in order. Sets are sorted; fn must not retain them across calls —
// they alias the walker's two ping-pong buffers, which are overwritten by
// the next event's merge.
//
//lint:zeroalloc per event after the walker's fixed warm-up
func (tl *Timeline) Walk(fn func(e Event, before, after []netaddr.Addr)) {
	if len(tl.Events) == 0 {
		return
	}
	var w setWalker
	w.reset(tl.Initial)
	for i := range tl.Events {
		e := &tl.Events[i]
		after := w.apply(e.Removed, e.Added)
		fn(*e, w.cur, after)
		w.flip()
	}
}

// siteState is the mutable hosting state behind one site's timeline.
type siteState struct {
	originActive []netaddr.Addr // currently published origin addresses
	originAS     []int          // the AS each active origin address lives in
	originSpare  []netaddr.Addr
	edgeAS       []int          // active edge ASes, ascending
	edgeVIP      []netaddr.Addr // the VIP each active edge AS publishes
	edgeGen      map[int]int
	lbRate       float64
	edgeRate     float64
	renumber     float64
	rehost       float64
}

// Timelines simulates the deployment for the given number of hours and
// returns one timeline per site. The simulation is deterministic in rng.
func (d *Deployment) Timelines(hours int, rng *rand.Rand) []Timeline {
	return d.TimelinesParallel(hours, rng, 1)
}

// TimelinesParallel is Timelines fanned out across parallel workers (0 =
// GOMAXPROCS). One child seed per site is drawn from rng up front, in site
// order, and each site is then simulated on its own splitmix64 stream
// seeded with it — so the trace is a pure function of rng's starting state
// and bit-identical at every parallelism degree, including 1.
func (d *Deployment) TimelinesParallel(hours int, rng *rand.Rand, parallel int) []Timeline {
	seeds := make([]int64, len(d.Sites))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	out := make([]Timeline, len(d.Sites))
	par.ForEach(parallel, len(d.Sites), func(i int) {
		src := &stats.SplitMix64{}
		src.Seed(seeds[i])
		out[i] = d.simulateSite(d.Sites[i], hours, rand.New(src))
	})
	return out
}

// eventBuilder accumulates a timeline's events with every address delta in
// one shared slab, so a timeline of n events costs two allocations (slab +
// event headers) instead of ~2n individual Removed/Added slices.
type eventBuilder struct {
	recs []eventRec
	slab []netaddr.Addr
}

type eventRec struct {
	hour         int
	remLo, remHi int
	addHi        int
}

func (b *eventBuilder) add(hour int, removed, added []netaddr.Addr) {
	lo := len(b.slab)
	b.slab = append(b.slab, removed...)
	mid := len(b.slab)
	b.slab = append(b.slab, added...)
	b.recs = append(b.recs, eventRec{hour: hour, remLo: lo, remHi: mid, addHi: len(b.slab)})
}

// finish materializes the Event slice; Removed/Added are full-capacity
// subslices of an exact-size copy of the slab (the timeline is retained for
// the whole run, the append-grown slab's slack with it), nil when empty
// (matching the per-event append construction this replaces).
func (b *eventBuilder) finish() []Event {
	if len(b.recs) == 0 {
		return nil
	}
	slab := slices.Clone(b.slab)
	evs := make([]Event, len(b.recs))
	for i, r := range b.recs {
		e := &evs[i]
		e.Hour = r.hour
		if r.remHi > r.remLo {
			e.Removed = slab[r.remLo:r.remHi:r.remHi]
		}
		if r.addHi > r.remHi {
			e.Added = slab[r.remHi:r.addHi:r.addHi]
		}
	}
	return evs
}

func (d *Deployment) simulateSite(site Site, hours int, rng *rand.Rand) Timeline {
	cfg := d.cfg
	st := &siteState{edgeGen: map[int]int{}}

	// Origin pool: OriginPool candidate addresses in the origin AS, a
	// random few of them published at a time (DNS round robin).
	pool := make([]netaddr.Addr, 0, cfg.OriginPool)
	for i := 0; i < cfg.OriginPool; i++ {
		pool = append(pool, d.edgeAddr(site.Name, site.OriginAS, 1000+i))
	}
	nActive := cfg.OriginActiveMin
	if cfg.OriginActiveMax > cfg.OriginActiveMin {
		nActive += rng.Intn(cfg.OriginActiveMax - cfg.OriginActiveMin + 1)
	}
	if site.Class == Unpopular {
		nActive = 1 + rng.Intn(2)
	}
	if nActive > len(pool) {
		nActive = len(pool)
	}
	st.originActive = append(st.originActive, pool[:nActive]...)
	for range st.originActive {
		st.originAS = append(st.originAS, site.OriginAS)
	}
	st.originSpare = append(st.originSpare, pool[nActive:]...)
	if site.ReplicaAS >= 0 {
		st.originActive = append(st.originActive, d.edgeAddr(site.Name, site.ReplicaAS, 0))
		st.originAS = append(st.originAS, site.ReplicaAS)
	}

	// CDN edge set.
	if site.CDN && len(d.EdgePool) > 0 {
		k := cfg.ActiveEdgesMin
		if cfg.ActiveEdgesMax > cfg.ActiveEdgesMin {
			k += rng.Intn(cfg.ActiveEdgesMax - cfg.ActiveEdgesMin + 1)
		}
		if k > len(d.EdgePool) {
			k = len(d.EdgePool)
		}
		for _, idx := range rng.Perm(len(d.EdgePool))[:k] {
			as := d.EdgePool[idx]
			st.setEdge(as, d.edgeAddr(site.Name, as, 0))
		}
	}

	// Per-site churn rates.
	if site.Class == Popular {
		st.lbRate = clamp01(cfg.LBRotMedian * stats.Exp(cfg.LBRotSigma*rng.NormFloat64()))
		st.edgeRate = clamp01(cfg.EdgeChurnMedian * stats.Exp(cfg.EdgeChurnSigma*rng.NormFloat64()))
	} else {
		st.renumber = cfg.UnpopRenumber
		st.rehost = cfg.UnpopRehost
	}

	tl := Timeline{Site: site, Hours: hours, Initial: st.snapshot()}
	var b eventBuilder
	// An hour sees at most two removals and two additions (one per churn
	// mechanism in each class branch below), so fixed scratch suffices.
	var remBuf, addBuf [2]netaddr.Addr
	for h := 1; h < hours; h++ {
		removed, added := remBuf[:0], addBuf[:0]
		if site.Class == Popular {
			// Origin load-balancer rotation: swap one active origin
			// address for a spare.
			if rng.Float64() < st.lbRate && len(st.originSpare) > 0 && len(st.originActive) > 0 {
				ai := rng.Intn(len(st.originActive))
				si := rng.Intn(len(st.originSpare))
				removed = append(removed, st.originActive[ai])
				added = append(added, st.originSpare[si])
				st.originActive[ai], st.originSpare[si] = st.originSpare[si], st.originActive[ai]
			}
			// CDN edge churn: retire one edge cluster, light up another.
			if site.CDN && rng.Float64() < st.edgeRate && len(st.edgeAS) > 0 {
				victim := rng.Intn(len(st.edgeAS))
				replacement := d.EdgePool[rng.Intn(len(d.EdgePool))]
				// The victim is active, so an inactive replacement differs.
				if _, dup := slices.BinarySearch(st.edgeAS, replacement); !dup {
					removed = append(removed, st.edgeVIP[victim])
					st.edgeAS = slices.Delete(st.edgeAS, victim, victim+1)
					st.edgeVIP = slices.Delete(st.edgeVIP, victim, victim+1)
					st.edgeGen[replacement]++
					a := d.edgeAddr(site.Name, replacement, st.edgeGen[replacement])
					st.setEdge(replacement, a)
					added = append(added, a)
				}
			}
		} else {
			// Long-tail churn: the rare renumber within the address's own
			// AS (same forwarding port everywhere), and the far rarer move
			// to a different hosting AS — the only unpopular event that can
			// ever induce a router update.
			if rng.Float64() < st.renumber && len(st.originActive) > 0 {
				i := rng.Intn(len(st.originActive))
				old := st.originActive[i]
				nw := d.edgeAddr(site.Name, st.originAS[i], 2000+h)
				if nw != old {
					removed = append(removed, old)
					added = append(added, nw)
					st.originActive[i] = nw
				}
			}
			if rng.Float64() < st.rehost && len(st.originActive) > 0 && len(d.EdgePool) > 0 {
				i := rng.Intn(len(st.originActive))
				old := st.originActive[i]
				newAS := d.EdgePool[rng.Intn(len(d.EdgePool))]
				nw := d.edgeAddr(site.Name, newAS, h)
				if nw != old {
					removed = append(removed, old)
					added = append(added, nw)
					st.originActive[i] = nw
					st.originAS[i] = newAS
				}
			}
		}
		if len(removed) > 0 || len(added) > 0 {
			b.add(h, removed, added)
		}
	}
	tl.Events = b.finish()
	return tl
}

// setEdge publishes vip for edge AS as, keeping edgeAS ascending; an AS
// already active gets the new VIP in place.
func (st *siteState) setEdge(as int, vip netaddr.Addr) {
	i, found := slices.BinarySearch(st.edgeAS, as)
	if found {
		st.edgeVIP[i] = vip
		return
	}
	st.edgeAS = slices.Insert(st.edgeAS, i, as)
	st.edgeVIP = slices.Insert(st.edgeVIP, i, vip)
}

func (st *siteState) snapshot() []netaddr.Addr {
	out := make([]netaddr.Addr, 0, len(st.originActive)+len(st.edgeVIP))
	out = append(out, st.originActive...)
	out = append(out, st.edgeVIP...)
	slices.Sort(out)
	return out
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 0.95 {
		return 0.95
	}
	return x
}

// CompleteTable builds the complete name-forwarding input of §3.3.2 for the
// given timelines at a given hour: each site name mapped to its address
// set. The caller (internal/core) turns address sets into ports per router.
// One walker is reused across all timelines, so the table costs one
// allocation per name (the retained set) plus the pre-sized map.
//
//lint:zeroalloc per replayed event; the per-name retained sets and the output map are the contract
func CompleteTable(tls []Timeline, hour int) map[Name][]netaddr.Addr {
	out := make(map[Name][]netaddr.Addr, len(tls))
	var w setWalker
	for i := range tls {
		w.runTo(&tls[i], hour)
		out[tls[i].Site.Name] = slices.Clone(w.cur)
	}
	return out
}
