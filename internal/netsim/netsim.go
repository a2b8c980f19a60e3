// Package netsim is a packet-level simulator of the three puristic
// architectures of §2, at the granularity of Figure 1(b)-(d): endpoints
// attach to routers in a shortest-path-routed network and packets are
// forwarded hop by hop under
//
//   - indirection routing (a home agent detours every packet),
//   - name resolution (an extra-network service is queried at connection
//     setup, then packets travel the direct path), and
//   - name-based routing (every router keeps a next-hop entry per name).
//
// The simulator measures what the analytic model of §5 predicts — additive
// path stretch and per-move update cost — and, beyond it, the handoff
// behaviour of name-based routing while an update wavefront is still
// propagating (the territory the paper assigns to the "strategy layer").
package netsim

import (
	"fmt"

	"locind/internal/topology"
)

// Network wraps a router topology with the precomputed state every
// architecture shares: all-pairs hop counts and per-location forwarding
// ports.
type Network struct {
	g    *topology.Graph
	hops [][]int
	// ports is g.NextHops(): ports[loc][r] is router r's next hop toward an
	// endpoint at loc, or the local port -1 when r == loc.
	ports [][]int
}

// NewNetwork precomputes forwarding state for g, which must be connected.
func NewNetwork(g *topology.Graph) (*Network, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("netsim: empty topology")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("netsim: topology must be connected")
	}
	return &Network{g: g, hops: g.AllPairsHops(), ports: g.NextHops()}, nil
}

// N returns the router count.
func (n *Network) N() int { return n.g.N() }

// Dist returns the hop distance between routers a and b.
func (n *Network) Dist(a, b int) int { return n.hops[a][b] }

// Delivery reports the fate of one packet.
type Delivery struct {
	Delivered bool
	// Hops is the data-path length actually traversed.
	Hops int
	// Shortest is the direct shortest-path length source→destination, so
	// Stretch() = Hops - Shortest.
	Shortest int
	// SetupCost counts extra control-plane messages spent before the first
	// data packet could leave (resolution lookups).
	SetupCost int
}

// Stretch returns the additive path stretch of the delivery.
func (d Delivery) Stretch() int { return d.Hops - d.Shortest }

// Arch is a location-independent communication architecture under test.
type Arch interface {
	// Name identifies the architecture.
	Name() string
	// Attach registers endpoint ep at a router, returning the number of
	// entities (routers or service replicas) that had to change state.
	Attach(ep string, router int) int
	// Move relocates ep, returning the update cost of the mobility event
	// (the §3 metric: how many entities must change state).
	Move(ep string, to int) int
	// Send forwards one packet from a source router toward ep.
	Send(src int, ep string) Delivery
}

// HomeAgent is indirection routing: the first attachment point becomes the
// endpoint's home agent; every packet detours through it (no route
// optimization, as in base Mobile IP).
type HomeAgent struct {
	net  *Network
	home map[string]int
	cur  map[string]int
}

// NewHomeAgent builds the indirection architecture over net.
func NewHomeAgent(net *Network) *HomeAgent {
	return &HomeAgent{net: net, home: map[string]int{}, cur: map[string]int{}}
}

// Name implements Arch.
func (h *HomeAgent) Name() string { return "indirection" }

// Attach implements Arch; the first attachment fixes the home agent.
func (h *HomeAgent) Attach(ep string, router int) int {
	if _, ok := h.home[ep]; !ok {
		h.home[ep] = router
	}
	h.cur[ep] = router
	return 1 // the home agent learns the binding
}

// Move implements Arch: exactly one entity (the home agent) updates.
func (h *HomeAgent) Move(ep string, to int) int {
	if _, ok := h.home[ep]; !ok {
		return h.Attach(ep, to)
	}
	h.cur[ep] = to
	return 1
}

// Send implements Arch: triangle routing via the home agent.
func (h *HomeAgent) Send(src int, ep string) Delivery {
	home, ok := h.home[ep]
	if !ok {
		return Delivery{}
	}
	cur := h.cur[ep]
	return Delivery{
		Delivered: true,
		Hops:      h.net.Dist(src, home) + h.net.Dist(home, cur),
		Shortest:  h.net.Dist(src, cur),
	}
}

// Resolver abstracts the extra-network service the resolution architecture
// queries (a map here; the tests also put a loopback gns cluster behind
// it).
type Resolver interface {
	ResolveUpdate(name string, router int) error
	ResolveLookup(name string) (int, error)
}

// MapResolver is the trivial in-process Resolver.
type MapResolver map[string]int

// ResolveUpdate implements Resolver.
func (m MapResolver) ResolveUpdate(name string, router int) error {
	m[name] = router
	return nil
}

// ResolveLookup implements Resolver.
func (m MapResolver) ResolveLookup(name string) (int, error) {
	r, ok := m[name]
	if !ok {
		return 0, fmt.Errorf("netsim: unknown name %q", name)
	}
	return r, nil
}

// Resolution is the name-resolution architecture: one update per move at
// the service, a lookup at connection setup, then direct shortest-path
// forwarding.
type Resolution struct {
	net *Network
	res Resolver
}

// NewResolution builds the resolution architecture over net and res.
func NewResolution(net *Network, res Resolver) *Resolution {
	return &Resolution{net: net, res: res}
}

// Name implements Arch.
func (r *Resolution) Name() string { return "name-resolution" }

// Attach implements Arch.
func (r *Resolution) Attach(ep string, router int) int {
	if err := r.res.ResolveUpdate(ep, router); err != nil {
		return 0
	}
	return 1
}

// Move implements Arch: one update at the resolution service.
func (r *Resolution) Move(ep string, to int) int { return r.Attach(ep, to) }

// Send implements Arch: lookup, then the direct path; data-path stretch is
// zero by construction, the lookup shows up as SetupCost.
func (r *Resolution) Send(src int, ep string) Delivery {
	cur, err := r.res.ResolveLookup(ep)
	if err != nil {
		return Delivery{SetupCost: 1}
	}
	d := r.net.Dist(src, cur)
	return Delivery{Delivered: true, Hops: d, Shortest: d, SetupCost: 1}
}

// NameRouting is pure name-based routing: every router holds a next-hop
// entry per name; a move updates exactly the routers whose entry changes
// (the §5.1.2 quantity), and packets follow the entries hop by hop. With
// converged tables every router's entry for ep is its next hop toward ep's
// current location, so that location is all the state kept per name.
type NameRouting struct {
	net *Network
	// cur[ep] points at ep's current router, so a move reads and writes it
	// with one map access.
	cur map[string]*int
	// moved[from*n+to] is how many routers a move from router from to
	// router to updates, or -1 until a move first asks: the count depends
	// only on the pair, so it is taken once per pair, for every endpoint.
	moved []int32
	// breadcrumb enables forwarding pointers at departure points (see
	// Breadcrumb).
	breadcrumb bool
}

// NewNameRouting builds the name-based architecture over net.
func NewNameRouting(net *Network) *NameRouting {
	moved := make([]int32, net.N()*net.N())
	for i := range moved {
		moved[i] = -1
	}
	return &NameRouting{net: net, cur: map[string]*int{}, moved: moved}
}

// Name implements Arch.
func (nr *NameRouting) Name() string { return "name-based-routing" }

// Attach implements Arch: every router installs an entry.
func (nr *NameRouting) Attach(ep string, router int) int {
	at, ok := nr.cur[ep]
	if !ok {
		at = new(int)
		nr.cur[ep] = at
	}
	*at = router
	return nr.net.N()
}

// Move implements Arch: routers whose forwarding port for ep changes are
// updated and counted — the exact displacement semantics of §3.1 lifted to
// names.
func (nr *NameRouting) Move(ep string, to int) int {
	at, ok := nr.cur[ep]
	if !ok {
		return nr.Attach(ep, to)
	}
	from := *at
	*at = to
	i := from*nr.net.N() + to
	if c := nr.moved[i]; c >= 0 {
		return int(c)
	}
	before, after := nr.net.ports[from], nr.net.ports[to]
	updated := 0
	for r := range before {
		if before[r] != after[r] {
			updated++
		}
	}
	nr.moved[i] = int32(updated)
	return updated
}

// Send implements Arch: hop-by-hop forwarding over the name tables.
func (nr *NameRouting) Send(src int, ep string) Delivery {
	at, ok := nr.cur[ep]
	if !ok {
		return Delivery{}
	}
	cur := *at
	hops := 0
	for at := src; at != cur; at = nr.net.ports[cur][at] {
		hops++
	}
	return Delivery{Delivered: true, Hops: hops, Shortest: nr.net.Dist(src, cur)}
}

// Breadcrumb turns on forwarding pointers at departure points: when an
// endpoint leaves a router, the old attachment router keeps a pointer to
// the new location and re-forwards packets that arrive for the departed
// endpoint — the custodian/indirection-point repair that proposals like
// Kim et al. add to NDN-style architectures. The zero value (disabled)
// reproduces pure name-based routing, where such packets are lost.
//
//lint:allow reach EXPERIMENTS.md quotes TestBreadcrumbScenario's repair figures; it stays until ROADMAP item 4 decides how that document is generated
func (nr *NameRouting) Breadcrumb(enable bool) { nr.breadcrumb = enable }

// SendDuringHandoff models a packet injected while the update wavefront of
// a move from oldLoc to newLoc is still propagating: the wavefront floods
// outward from newLoc one hop per tick (router r switches its entry at time
// Dist(newLoc, r)), the packet starts at src at time t0 and takes one hop
// per tick. Packets racing ahead of the wavefront chase the old location;
// late injections see converged state. The return reports whether the
// packet reached the endpoint's NEW location, and in how many hops.
//
// With breadcrumbs enabled (Breadcrumb(true)), a packet that wins the race
// to the old location is re-forwarded from there toward the new one instead
// of being dropped, converting the loss into a detour whose extra hops show
// up as stretch.
func (nr *NameRouting) SendDuringHandoff(src int, ep string, oldLoc, newLoc, t0 int) Delivery {
	shortest := nr.net.Dist(src, newLoc)
	at := src
	hops := 0
	t := t0
	ttl := 6 * nr.net.N()
	chasingCrumb := false
	for {
		loc := oldLoc
		if chasingCrumb || t >= nr.net.Dist(newLoc, at) {
			loc = newLoc
		}
		if at == loc {
			if at == newLoc {
				return Delivery{Delivered: true, Hops: hops, Shortest: shortest}
			}
			// The packet won the race to the departure point.
			if nr.breadcrumb {
				chasingCrumb = true // follow the forwarding pointer
				continue
			}
			return Delivery{Hops: hops, Shortest: shortest} // lost
		}
		at = nr.net.ports[loc][at]
		hops++
		t++
		if hops > ttl {
			return Delivery{Hops: hops, Shortest: shortest}
		}
	}
}
