// Package cdn models how content is named, hosted, and moved across
// addresses: a synthetic Alexa-like namespace (popular domains with many
// subdomains, a long tail with hardly any), CDN delegation with
// locality-aware edge placement, origin-server DNS load balancing, and the
// hourly Addrs(d, t) timelines whose flux is the paper's content-mobility
// workload (§7.1).
package cdn

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/netaddr"
)

// Class splits the workload the way the paper does: the top-500 popularity
// band versus the long tail around rank one million.
type Class uint8

// Workload classes.
const (
	Popular Class = iota
	Unpopular
)

// String names the class.
func (c Class) String() string {
	if c == Unpopular {
		return "unpopular"
	}
	return "popular"
}

// Config parameterizes namespace and deployment synthesis. The defaults
// mirror the paper's measured facts: 500 domains per class, ~12K popular
// subdomains in total, 24.5% of popular domains (1.6% of unpopular) CDN-
// delegated.
type Config struct {
	PopularDomains   int
	UnpopularDomains int

	// SubdomainMeanPopular is the mean subdomain count of a popular domain
	// (the paper's 500 popular domains expand to 12,342 names ≈ 24.7 each);
	// unpopular domains draw from [0, SubdomainMaxUnpopular].
	SubdomainMeanPopular  float64
	SubdomainMaxUnpopular int

	PopularCDNFrac   float64
	UnpopularCDNFrac float64

	// HostingPerRegion and EdgesPerRegion size the pools of hosting ASes
	// (origin servers) and CDN edge ASes carved out of each region's stubs.
	// EdgeTransitPerRegion additionally embeds edge clusters inside the
	// region's transit ASes (as real CDNs deploy inside ISP PoPs), which is
	// what makes an edge the topologically closest copy at nearby routers.
	HostingPerRegion     int
	EdgesPerRegion       int
	EdgeTransitPerRegion int

	// ActiveEdges is the typical number of CDN edge clusters announcing a
	// delegated name at once; OriginPool/OriginActive shape DNS round-robin
	// at origin servers.
	ActiveEdgesMin, ActiveEdgesMax   int
	OriginPool                       int
	OriginActiveMin, OriginActiveMax int

	// Churn rates, per hour. LBRotMedian is the median per-domain
	// probability of a load-balancer rotation (lognormal across domains,
	// sigma LBRotSigma); EdgeChurnMedian likewise for edge-set changes of
	// CDN names. Unpopular names renumber/rehost at the fixed tiny rates
	// below, reflecting "a small number of network locations that rarely
	// change".
	LBRotMedian     float64
	LBRotSigma      float64
	EdgeChurnMedian float64
	EdgeChurnSigma  float64
	UnpopRenumber   float64
	UnpopRehost     float64
}

// DefaultConfig returns the calibrated configuration.
func DefaultConfig() Config {
	return Config{
		PopularDomains:        500,
		UnpopularDomains:      500,
		SubdomainMeanPopular:  24,
		SubdomainMaxUnpopular: 2,
		PopularCDNFrac:        0.245,
		UnpopularCDNFrac:      0.016,
		HostingPerRegion:      10,
		EdgesPerRegion:        7,
		EdgeTransitPerRegion:  3,
		ActiveEdgesMin:        8,
		ActiveEdgesMax:        20,
		OriginPool:            8,
		OriginActiveMin:       2,
		OriginActiveMax:       4,
		LBRotMedian:           0.055,
		LBRotSigma:            1.1,
		EdgeChurnMedian:       0.05,
		EdgeChurnSigma:        0.9,
		UnpopRenumber:         0.002,
		UnpopRehost:           0.00002,
	}
}

// Name is a domain-style hierarchical name such as "travel.yahoo.com", whose
// parent is what follows its first dot; the empty Name is the root.
type Name string

// Site is one named content principal (an enterprise domain or one of its
// subdomains) together with its hosting arrangement.
type Site struct {
	Name   Name
	Parent Name // enterprise domain ("" when Name is the domain itself)
	Class  Class
	CDN    bool

	OriginAS  int
	ReplicaAS int // -1 unless the site keeps a fault-tolerance replica
}

// Deployment is the synthesized content world: the namespace, hosting
// assignments, and the CDN edge pool.
type Deployment struct {
	Sites    []Site
	EdgePool []int // candidate edge ASes, all regions
	cfg      Config
	pt       *bgp.PrefixTable
}

// Generate synthesizes a Deployment over the internetwork g. Hosting and
// edge ASes are taken from the tail of each region's stub list so they
// never collide with the access-network pools the device workload carves
// from the front.
func Generate(g *asgraph.Graph, pt *bgp.PrefixTable, cfg Config, rng *rand.Rand) (*Deployment, error) {
	if cfg.PopularDomains < 1 || cfg.UnpopularDomains < 0 {
		return nil, fmt.Errorf("cdn: bad domain counts %d/%d", cfg.PopularDomains, cfg.UnpopularDomains)
	}
	var hosting, edges []int
	for r := asgraph.Region(0); r < asgraph.Region(6); r++ {
		stubs := g.StubsInRegion(r)
		need := cfg.HostingPerRegion + cfg.EdgesPerRegion
		if len(stubs) < need {
			continue // a sparse region simply contributes no hosting
		}
		tail := stubs[len(stubs)-need:]
		hosting = append(hosting, tail[:cfg.HostingPerRegion]...)
		// Edge ASes must carry distinguishable forwarding ports, or edge
		// churn would be invisible to routers: prefer stubs that do NOT buy
		// transit from the regional mega (real CDN edge clusters sit inside
		// diverse ISPs, not behind the one dominant wholesale transit).
		// The regional mega is the lowest-ID tier-2 in the region.
		mega := -1
		for _, x := range g.ASesInRegion(r) {
			if g.Tier(x) == 2 {
				mega = x
				break
			}
		}
		var diverse []int
		for i := len(stubs) - need - 1; i >= 0 && len(diverse) < cfg.EdgesPerRegion; i-- {
			s := stubs[i]
			megaHomed := false
			for _, p := range g.Providers(s) {
				if int(p) == mega {
					megaHomed = true
					break
				}
			}
			if !megaHomed {
				diverse = append(diverse, s)
			}
		}
		if len(diverse) < cfg.EdgesPerRegion {
			diverse = append(diverse, tail[cfg.HostingPerRegion:cfg.HostingPerRegion+cfg.EdgesPerRegion-len(diverse)]...)
		}
		edges = append(edges, diverse...)
		// ISP-embedded clusters: the 2nd..(1+EdgeTransitPerRegion)-th tier-2
		// of the region (skipping the mega so edge ports stay diverse).
		t2Count := 0
		for _, x := range g.ASesInRegion(r) {
			if g.Tier(x) != 2 {
				continue
			}
			t2Count++
			if t2Count == 1 {
				continue // the mega
			}
			if t2Count > 1+cfg.EdgeTransitPerRegion {
				break
			}
			edges = append(edges, x)
		}
	}
	if len(hosting) == 0 || len(edges) == 0 {
		return nil, fmt.Errorf("cdn: graph too small for hosting/edge pools")
	}

	d := &Deployment{EdgePool: edges, cfg: cfg, pt: pt}
	addDomain := func(idx int, class Class) {
		var domain Name
		cdnFrac := cfg.PopularCDNFrac
		nSub := 0
		if class == Popular {
			domain = Name(fmt.Sprintf("pop%03d.com", idx))
			// Geometric-ish subdomain count with the configured mean.
			nSub = int(math.Round(rng.ExpFloat64() * cfg.SubdomainMeanPopular))
			if nSub > 6*int(cfg.SubdomainMeanPopular) {
				nSub = 6 * int(cfg.SubdomainMeanPopular)
			}
		} else {
			domain = Name(fmt.Sprintf("tail%03d.org", idx))
			cdnFrac = cfg.UnpopularCDNFrac
			if cfg.SubdomainMaxUnpopular > 0 {
				nSub = rng.Intn(cfg.SubdomainMaxUnpopular + 1)
			}
		}
		isCDN := rng.Float64() < cdnFrac
		origin := hosting[rng.Intn(len(hosting))]
		replica := -1
		if class == Unpopular && rng.Float64() < 0.3 {
			replica = hosting[rng.Intn(len(hosting))]
		}
		mk := func(n Name, parent Name) Site {
			s := Site{Name: n, Parent: parent, Class: class, OriginAS: origin, ReplicaAS: replica}
			// Subdomains of a CDN-delegated domain are usually (not
			// always) CNAME-aliased into the CDN; the apex often is not.
			if isCDN {
				if parent == "" {
					s.CDN = rng.Float64() < 0.5
				} else {
					s.CDN = rng.Float64() < 0.8
				}
			}
			return s
		}
		d.Sites = append(d.Sites, mk(domain, ""))
		for s := 0; s < nSub; s++ {
			sub := Name(fmt.Sprintf("s%02d", s)) + "." + domain
			d.Sites = append(d.Sites, mk(sub, domain))
		}
	}
	for i := 0; i < cfg.PopularDomains; i++ {
		addDomain(i, Popular)
	}
	for i := 0; i < cfg.UnpopularDomains; i++ {
		addDomain(i, Unpopular)
	}
	return d, nil
}

// FNV-1a 64-bit parameters (hash/fnv), inlined so edgeAddr hashes on the
// stack instead of allocating a hash.Hash64 and fmt boxing per call — the
// function runs once per candidate address of every simulated site.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvBytes(h uint64, bs []byte) uint64 {
	for _, b := range bs {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// edgeAddr mints the stable address a given edge AS uses for a given site
// (real CDNs hand out per-customer VIPs; keeping it a deterministic hash
// keeps timelines reproducible and sets comparable across hours). The hash
// is FNV-1a over "site|edgeAS|generation", byte-identical to the previous
// fnv.New64a/Fprintf formulation (pinned by TestEdgeAddrMatchesFNVReference)
// but allocation-free.
func (d *Deployment) edgeAddr(site Name, edgeAS int, generation int) netaddr.Addr {
	var buf [20]byte
	h := uint64(fnvOffset64)
	for i := 0; i < len(site); i++ {
		h = (h ^ uint64(site[i])) * fnvPrime64
	}
	h = (h ^ '|') * fnvPrime64
	h = fnvBytes(h, strconv.AppendInt(buf[:0], int64(edgeAS), 10))
	h = (h ^ '|') * fnvPrime64
	h = fnvBytes(h, strconv.AppendInt(buf[:0], int64(generation), 10))
	return d.pt.AddrIn(edgeAS, h%(1<<16))
}
