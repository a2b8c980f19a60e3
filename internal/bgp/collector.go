package bgp

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"locind/internal/asgraph"
	"locind/internal/netaddr"
	"locind/internal/par"
)

// Session is one BGP feed into a collector: the peer AS providing it, the
// business relationship of the collector's host AS to that peer (which,
// following §6.2.1, stands in for local preference during ranking), and the
// session's fixed MED — a consistent early-exit-style preference among
// equal-length routes. Mega-transit feeds carry MED 1; other feeds carry a
// deterministic MED in [0, 4), so roughly a quarter of direct provider
// feeds outrank the mega on ties. This is what makes port diversity (and
// hence Figure 8's update rate) grow with a collector's feed count, the way
// it does across the real Oregon/Georgia/Mauritius collectors.
type Session struct {
	PeerAS int
	Rel    asgraph.Rel
	MED    int
}

// Collector is a RouteViews/RIPE-like route collector: a host AS, its
// sessions, and the RIB/FIB assembled from the feeds.
type Collector struct {
	Name     string
	Region   asgraph.Region
	HostAS   int
	Sessions []Session
	RIB      *RIB
	FIB      *FIB
}

// Spec describes a collector to synthesize. The session count and the
// presence of a dominant customer feed are what differentiate the
// high-diversity Oregon collectors from the single-feed Mauritius/Tokyo
// ones in Figure 8.
type Spec struct {
	Name    string
	Region  asgraph.Region
	NumSess int
	// GlobalFrac is the fraction of session peers drawn from outside the
	// collector's region.
	GlobalFrac float64
	// CustomerFeed marks the first session as a transit-customer feed;
	// because customer routes outrank everything, such a collector funnels
	// essentially all traffic through one port and sees almost no updates.
	CustomerFeed bool
}

// RouteViewsSpecs returns the 12 collectors of Figure 8 with session
// profiles chosen to mirror the real collectors' peer degrees: the Oregon
// route-views boxes famously carry dozens of full feeds, Georgia has only a
// handful, and the distant collectors are dominated by a single feed.
func RouteViewsSpecs() []Spec {
	return []Spec{
		{Name: "Oregon-1", Region: asgraph.NorthAmerica, NumSess: 36, GlobalFrac: 0.4},
		{Name: "Oregon-2", Region: asgraph.NorthAmerica, NumSess: 33, GlobalFrac: 0.4},
		{Name: "Oregon-3", Region: asgraph.NorthAmerica, NumSess: 30, GlobalFrac: 0.35},
		{Name: "Oregon-4", Region: asgraph.NorthAmerica, NumSess: 28, GlobalFrac: 0.35},
		{Name: "California-1", Region: asgraph.NorthAmerica, NumSess: 18, GlobalFrac: 0.3},
		{Name: "Georgia", Region: asgraph.NorthAmerica, NumSess: 4, GlobalFrac: 0.25},
		{Name: "Virginia", Region: asgraph.NorthAmerica, NumSess: 14, GlobalFrac: 0.3},
		{Name: "Saopaulo-1", Region: asgraph.SouthAmerica, NumSess: 9, GlobalFrac: 0.3},
		{Name: "London-1", Region: asgraph.Europe, NumSess: 16, GlobalFrac: 0.35},
		{Name: "Mauritius", Region: asgraph.Africa, NumSess: 2, GlobalFrac: 0.5, CustomerFeed: true},
		{Name: "Tokyo", Region: asgraph.Asia, NumSess: 3, GlobalFrac: 0.3, CustomerFeed: true},
		{Name: "Sydney", Region: asgraph.Oceania, NumSess: 5, GlobalFrac: 0.4},
	}
}

// RIPESpecs returns 13 RIPE-RIS-like collectors in 13 cities, 10 of them in
// locations distinct from the RouteViews set, used by the paper's
// sensitivity analysis.
func RIPESpecs() []Spec {
	return []Spec{
		{Name: "Amsterdam", Region: asgraph.Europe, NumSess: 30, GlobalFrac: 0.4},
		{Name: "London-RIPE", Region: asgraph.Europe, NumSess: 22, GlobalFrac: 0.4},
		{Name: "Paris", Region: asgraph.Europe, NumSess: 14, GlobalFrac: 0.3},
		{Name: "Geneva", Region: asgraph.Europe, NumSess: 10, GlobalFrac: 0.3},
		{Name: "Vienna", Region: asgraph.Europe, NumSess: 12, GlobalFrac: 0.3},
		{Name: "Stockholm", Region: asgraph.Europe, NumSess: 9, GlobalFrac: 0.25},
		{Name: "Milan", Region: asgraph.Europe, NumSess: 8, GlobalFrac: 0.25},
		{Name: "NewYork", Region: asgraph.NorthAmerica, NumSess: 20, GlobalFrac: 0.35},
		{Name: "Palo-Alto", Region: asgraph.NorthAmerica, NumSess: 17, GlobalFrac: 0.35},
		{Name: "Miami", Region: asgraph.NorthAmerica, NumSess: 8, GlobalFrac: 0.3},
		{Name: "Moscow", Region: asgraph.Europe, NumSess: 7, GlobalFrac: 0.25},
		{Name: "Tokyo-RIPE", Region: asgraph.Asia, NumSess: 4, GlobalFrac: 0.3, CustomerFeed: true},
		{Name: "Johannesburg", Region: asgraph.Africa, NumSess: 3, GlobalFrac: 0.4, CustomerFeed: true},
	}
}

// BuildCollectors synthesizes collectors for the given specs over graph g
// and address plan pt: NewCollector for each spec in order, drawing from
// rng, then one FillCollectors over them all.
func BuildCollectors(g *asgraph.Graph, pt *PrefixTable, specs []Spec, rng *rand.Rand) ([]*Collector, error) {
	cols := make([]*Collector, 0, len(specs))
	for _, spec := range specs {
		c, err := NewCollector(g, spec, rng)
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
	}
	FillCollectors(g, pt, cols)
	return cols, nil
}

// FillCollectors builds the RIB and FIB of every collector in cols over
// graph g and address plan pt. All of them share one pass of per-destination
// route computation, so filling the RouteViews and RIPE sets together costs
// the same as filling either alone, and a collector's tables do not depend
// on which others it is filled with. The fill fans out over par.Workers(0)
// goroutines — origins first, then collectors — and every worker writes only
// slots it owns, so the result is the same at any core count.
func FillCollectors(g *asgraph.Graph, pt *PrefixTable, cols []*Collector) {
	all := pt.All()
	// Collectors overlap heavily on feed peers (every well-fed collector
	// seeds the same mega-transits), so each distinct peer's AS path is walked
	// once per origin, into the one path table the collectors of this call
	// share. peerOf[ci][si] indexes peers for collector ci's session si.
	peerIdx := map[int]int32{}
	var peers []int
	peerOf := make([][]int32, len(cols))
	for ci, c := range cols {
		peerOf[ci] = make([]int32, len(c.Sessions))
		for si, s := range c.Sessions {
			idx, ok := peerIdx[s.PeerAS]
			if !ok {
				idx = int32(len(peers))
				peerIdx[s.PeerAS] = idx
				peers = append(peers, s.PeerAS)
			}
			peerOf[ci][si] = idx
		}
	}
	// pt lists an origin's prefixes together: run k is all[runs[k]:runs[k+1]],
	// one route computation and one chunk of paths. The runs come in the same
	// order on every call, and so do the FIB inserts.
	runs := make([]int, 0, g.N()+1)
	for i, po := range all {
		if i == 0 || po.Origin != all[i-1].Origin {
			runs = append(runs, i)
		}
	}
	nRuns := len(runs)
	runs = append(runs, len(all))
	paths := &pathTable{stride: len(peers) + 1, chunks: make([][]int, nRuns)}
	paths.off = make([]int32, nRuns*paths.stride)
	// Phase 1, over origins: runs cost about the same, so each worker takes
	// one shard of them, one route table, and fills the slots of its runs.
	shards := par.Shards(nRuns, par.Workers(0))
	par.ForEach(0, len(shards), func(s int) {
		var rt asgraph.RouteTable
		for k := shards[s][0]; k < shards[s][1]; k++ {
			g.RoutesToInto(&rt, all[runs[k]].Origin)
			paths.fill(k, &rt, peers)
		}
	})
	// Phase 2, over collectors: one worker builds one collector's RIB and FIB
	// from start to finish and only reads the finished path table and the
	// plan's prefix index, which every RIB, and the FIB of every collector
	// routing the whole plan, shares: slot i is all[i].
	idx := indexOf(len(all), func(i int) netaddr.Prefix { return all[i].Prefix })
	par.ForEach(0, len(cols), func(ci int) {
		cols[ci].fill(all, runs, paths, peerOf[ci], idx)
	})
}

// fill builds c's RIB and FIB over the prefix plan all, cut into origin runs,
// from the finished path table; peerOf[si] is session si's peer in it. The
// RIB reads idx, all's index; so does the FIB when c has a route to every
// origin, and otherwise it indexes its own prefixes.
func (c *Collector) fill(all []PrefixOrigin, runs []int, paths *pathTable, peerOf []int32, idx *netaddr.Trie[int32]) {
	c.RIB = &RIB{idx: idx, sharedIdx: true, spans: make([]span, len(all)), attrIdx: map[attrSet]int32{}, shared: paths}
	for _, s := range c.Sessions { // distinct peers: session si gets attribute set si
		c.RIB.attr(attrSet{NextHop: s.PeerAS, MED: s.MED, Rel: s.Rel})
	}
	// The prefixes of one origin have the same candidates, at most one per
	// session, so the slab holds one run of them per origin. A run is written
	// back to back, in session order, and every prefix of its origin spans
	// it; an unreachable origin's slots keep the empty span.
	cands := make([]cand, 0, (len(runs)-1)*len(c.Sessions))
	entries := make([]entry, 0, len(all))
	for k := 0; k+1 < len(runs); k++ {
		// Pick the best as the candidates go by. A path has an element, so
		// bestLen 0 means none yet.
		base := int32(k * paths.stride)
		first := len(cands)
		var best Session
		var sel cand
		var bestLen int32
		for si, s := range c.Sessions {
			path := base + peerOf[si]
			n := paths.off[path+1] - paths.off[path]
			if n == 0 {
				continue // the peer has no route to this origin
			}
			cands = append(cands, cand{attr: int32(si), path: path})
			// Better with LocalPref equal: class, path length, MED, peer.
			if bestLen == 0 || s.Rel < best.Rel || s.Rel == best.Rel && (n < bestLen ||
				n == bestLen && (s.MED < best.MED || s.MED == best.MED && s.PeerAS < best.PeerAS)) {
				best, sel, bestLen = s, cands[len(cands)-1], n
			}
		}
		if len(cands) == first {
			continue
		}
		run := span{int32(first), int32(len(cands))}
		for i := runs[k]; i < runs[k+1]; i++ {
			c.RIB.spans[i] = run
			entries = append(entries, entry{all[i].Prefix, sel})
		}
	}
	c.RIB.cands = cands
	// Entries follow the plan's order and skip only unreachable origins, so a
	// column with an entry per slot of idx is slot for slot idx's.
	if len(entries) == idx.Len() {
		c.FIB = &FIB{idx: idx, entries: entries, rib: c.RIB, shared: true}
	} else {
		c.FIB = ownFIB(c.RIB, entries)
	}
}

// NewCollector draws a collector for spec over graph g from rng: its host AS
// and its sessions. Its RIB and FIB stay nil until FillCollectors.
func NewCollector(g *asgraph.Graph, spec Spec, rng *rand.Rand) (*Collector, error) {
	if spec.NumSess < 1 {
		return nil, fmt.Errorf("bgp: collector %q needs at least one session", spec.Name)
	}
	// Candidate peers: transit ASes (tiers 1-2). Local pool first. The
	// lowest-ID tier-2 of a region is its mega-transit.
	var local, global []int
	megaByRegion := map[asgraph.Region]int{}
	for x := 0; x < g.N(); x++ {
		t := g.Tier(x)
		if t != 1 && t != 2 {
			continue
		}
		if t == 2 {
			if _, ok := megaByRegion[g.Region(x)]; !ok {
				megaByRegion[g.Region(x)] = x // tier-2 IDs ascend, first is the mega
			}
		}
		if g.Region(x) == spec.Region {
			local = append(local, x)
		} else {
			global = append(global, x)
		}
	}
	if len(local) == 0 {
		local = global
	}
	if len(local) == 0 {
		return nil, fmt.Errorf("bgp: no transit ASes available for collector %q", spec.Name)
	}
	host := local[rng.Intn(len(local))]
	c := &Collector{Name: spec.Name, Region: spec.Region, HostAS: host}
	seen := map[int]bool{host: true}
	// Every real collector's first and steadiest feeds are the large
	// transit networks: seed the session list with the regional mega (and,
	// for well-fed collectors, every region's mega) before random fill.
	// Customer-feed collectors keep their dominant feed first instead.
	if !spec.CustomerFeed {
		seedMegas := []int{}
		if m, ok := megaByRegion[spec.Region]; ok {
			seedMegas = append(seedMegas, m)
		}
		if spec.NumSess >= 8 {
			regions := []asgraph.Region{
				asgraph.NorthAmerica, asgraph.SouthAmerica, asgraph.Europe,
				asgraph.Asia, asgraph.Oceania, asgraph.Africa,
			}
			for _, r := range regions {
				if m, ok := megaByRegion[r]; ok && r != spec.Region {
					seedMegas = append(seedMegas, m)
				}
			}
		}
		for _, m := range seedMegas {
			if len(c.Sessions) >= spec.NumSess || seen[m] {
				continue
			}
			seen[m] = true
			c.Sessions = append(c.Sessions, Session{PeerAS: m, Rel: asgraph.RelPeer, MED: 1})
		}
	}
	for len(c.Sessions) < spec.NumSess {
		pool := local
		if rng.Float64() < spec.GlobalFrac && len(global) > 0 {
			pool = global
		}
		peer := pool[rng.Intn(len(pool))]
		if seen[peer] {
			// Exhaustion guard: if we have consumed nearly the whole pool,
			// accept fewer sessions rather than spinning.
			if len(seen) >= len(local)+len(global) {
				break
			}
			continue
		}
		seen[peer] = true
		rel := asgraph.RelPeer
		if spec.CustomerFeed && len(c.Sessions) == 0 {
			rel = asgraph.RelCustomer
		}
		c.Sessions = append(c.Sessions, Session{PeerAS: peer, Rel: rel, MED: stableMED(peer)})
	}
	return c, nil
}

// stableMED derives a deterministic per-peer MED in [0, 4) — a fixed
// session priority, constant across prefixes, the way consistent early-exit
// preferences behave in real tables. The paper found local_preference
// uniformly zero in the RouteViews dumps, leaving relationship, path length,
// and MED as the deciding rules (§6.2.1).
func stableMED(peer int) int {
	h := fnv.New32a()
	var buf [4]byte
	buf[0] = byte(peer)
	buf[1] = byte(peer >> 8)
	buf[2] = byte(peer >> 16)
	buf[3] = byte(peer >> 24)
	h.Write(buf[:])
	return int(h.Sum32() % 4)
}
