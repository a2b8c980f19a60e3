package cdn

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"locind/internal/netaddr"
	"locind/internal/stats"
)

// mapSiteState is siteState as it was when the active edge set was a map
// from edge AS to published VIP.
type mapSiteState struct {
	originActive []netaddr.Addr
	originAS     []int
	originSpare  []netaddr.Addr
	edgeActive   map[int]netaddr.Addr // edge AS -> published VIP
	edgeGen      map[int]int
	lbRate       float64
	edgeRate     float64
	renumber     float64
	rehost       float64
}

// simulateSiteMap is the map-based simulateSite, kept as the oracle for the
// sorted-slice edge set: the churn step draws its victim from the map's
// keys sorted, which is the order the slices keep.
func (d *Deployment) simulateSiteMap(site Site, hours int, rng *rand.Rand) Timeline {
	cfg := d.cfg
	st := &mapSiteState{
		edgeActive: map[int]netaddr.Addr{},
		edgeGen:    map[int]int{},
	}

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
			st.edgeActive[as] = d.edgeAddr(site.Name, as, 0)
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
			if site.CDN && rng.Float64() < st.edgeRate && len(st.edgeActive) > 0 {
				actives := sortedKeys(st.edgeActive)
				victim := actives[rng.Intn(len(actives))]
				replacement := d.EdgePool[rng.Intn(len(d.EdgePool))]
				if _, dup := st.edgeActive[replacement]; !dup && replacement != victim {
					removed = append(removed, st.edgeActive[victim])
					delete(st.edgeActive, victim)
					st.edgeGen[replacement]++
					a := d.edgeAddr(site.Name, replacement, st.edgeGen[replacement])
					st.edgeActive[replacement] = a
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

func (st *mapSiteState) snapshot() []netaddr.Addr {
	out := make([]netaddr.Addr, 0, len(st.originActive)+len(st.edgeActive))
	out = append(out, st.originActive...)
	for _, a := range st.edgeActive {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

func sortedKeys(m map[int]netaddr.Addr) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// TestSimulateSiteMatchesMapOracle replays every site of a deployment at
// three seeds through both versions on sources seeded alike.
func TestSimulateSiteMatchesMapOracle(t *testing.T) {
	for _, seed := range []int64{3, 7, 20140817} {
		g, pt := testWorld(t)
		cfg := DefaultConfig()
		cfg.PopularDomains, cfg.UnpopularDomains = 80, 80 // expt.QuickConfig's deployment
		d, err := Generate(g, pt, cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + 5))
		events := 0
		for _, site := range d.Sites {
			child := rng.Int63()
			var a, b stats.SplitMix64
			a.Seed(child)
			b.Seed(child)
			got := d.simulateSite(site, 24*7, rand.New(&a))
			want := d.simulateSiteMap(site, 24*7, rand.New(&b))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, site %s: timeline differs from the map-based oracle", seed, site.Name)
			}
			events += len(got.Events)
		}
		if events == 0 {
			t.Fatalf("seed %d: no events, so nothing was compared", seed)
		}
	}
}
