// Package intradomain instantiates the §3.1 setting: a single
// shortest-path-routed network (Figure 1(a)) in which hosts move between
// subnets attached to different routers. It derives per-router FIBs from
// link-state shortest paths, answers the displacement question exactly as
// the paper poses it, and models the two ways a network can absorb host
// mobility:
//
//   - renumbering — the host takes an address from the new subnet, and a
//     router must update only if its output ports for the old and new
//     longest-matching prefixes differ (the §3.1 displacement test);
//   - host routes — the host keeps its address (the name-based-routing view
//     of a flat identifier), and every displaced router must install a /32
//     exception, so the forwarding-table-size cost becomes visible.
package intradomain

import (
	"fmt"

	"locind/internal/netaddr"
	"locind/internal/topology"
)

// Network is a shortest-path-routed domain: a router topology where router
// i owns the subnet 10.i.0.0/16 (so the address plan supports up to 256
// routers).
type Network struct {
	g *topology.Graph
	// nextHop is g.NextHops(): nextHop[dst][r] is router r's output port
	// toward router dst, the neighbor on the shortest path, or the local
	// port -1 (deliver onto the attached subnet) when r == dst.
	nextHop [][]int
	// fibs[r] maps subnets to ports at router r, with any /32 host-route
	// exceptions layered on top.
	fibs []*netaddr.Trie[int]
}

// New builds a Network over the given connected router topology.
func New(g *topology.Graph) (*Network, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("intradomain: empty topology")
	}
	if g.N() > 256 {
		return nil, fmt.Errorf("intradomain: address plan supports 256 routers, have %d", g.N())
	}
	if !g.Connected() {
		return nil, fmt.Errorf("intradomain: topology must be connected")
	}
	n := g.N()
	net := &Network{g: g, nextHop: g.NextHops(), fibs: make([]*netaddr.Trie[int], n)}
	for r := 0; r < n; r++ {
		fib := &netaddr.Trie[int]{}
		for dst := 0; dst < n; dst++ {
			fib.Insert(SubnetOf(dst), net.nextHop[dst][r])
		}
		net.fibs[r] = fib
	}
	return net, nil
}

// N returns the number of routers.
func (n *Network) N() int { return n.g.N() }

// SubnetOf returns the subnet attached to router r: 10.r.0.0/16.
func SubnetOf(r int) netaddr.Prefix {
	return netaddr.MakePrefix(netaddr.MakeAddr(10, byte(r), 0, 0), 16)
}

// AddrAt mints the host-th address in router r's subnet.
func AddrAt(r int, host uint64) netaddr.Addr {
	return SubnetOf(r).Nth(host)
}

// RouterOf returns which router's subnet covers address a (-1 if none).
func RouterOf(a netaddr.Addr) int {
	if !netaddr.MakePrefix(netaddr.MakeAddr(10, 0, 0, 0), 8).Contains(a) {
		return -1
	}
	_, o2, _, _ := a.Octets()
	return int(o2)
}

// Port answers router r's forwarding decision for address a via
// longest-prefix matching over its FIB (subnets plus host routes).
func (n *Network) Port(r int, a netaddr.Addr) (int, bool) {
	return n.fibs[r].Lookup(a)
}

// MoveWithHostRoutes models the flat-identifier alternative: the host keeps
// address addr while attaching at router dst. Every router whose
// longest-prefix match for addr no longer points toward dst gets a /32
// host route installed (or updated). It returns how many routers had to
// change state.
func (n *Network) MoveWithHostRoutes(addr netaddr.Addr, dst int) int {
	updated := 0
	host := netaddr.MakePrefix(addr, 32)
	for r := 0; r < n.N(); r++ {
		want := n.nextHop[dst][r]
		cur, curOK := n.Port(r, addr)
		if base, okBase := n.subnetPort(r, addr); okBase && base == want {
			// The covering subnet already forwards correctly: any host
			// route is redundant and gets cleaned up.
			n.fibs[r].Remove(host)
		} else {
			n.fibs[r].Insert(host, want)
		}
		if !curOK || cur != want {
			updated++
		}
	}
	return updated
}

// subnetPort answers what router r would do for addr using only the subnet
// entry (ignoring host routes).
func (n *Network) subnetPort(r int, addr netaddr.Addr) (int, bool) {
	owner := RouterOf(addr)
	if owner < 0 || owner >= n.N() {
		return 0, false
	}
	return n.nextHop[owner][r], true
}

// HostRouteCount returns the number of /32 exceptions currently installed
// at router r — the forwarding-table-size cost of flat identifiers.
func (n *Network) HostRouteCount(r int) int {
	count := 0
	n.fibs[r].Walk(func(p netaddr.Prefix, _ int) bool {
		if p.Bits() == 32 {
			count++
		}
		return true
	})
	return count
}

// TotalHostRoutes sums HostRouteCount over all routers.
func (n *Network) TotalHostRoutes() int {
	total := 0
	for r := 0; r < n.N(); r++ {
		total += n.HostRouteCount(r)
	}
	return total
}

// AggregateRenumberCost computes the expected fraction of routers updated
// per mobility event under uniform random movement — comparable to
// analytic.ExactNameBased, but derived from the address-plan FIBs rather
// than abstract ports. The two agree exactly on any topology, which the
// tests exploit as a cross-package validation. A move from router src's
// subnet to router dst's takes a host from src's first host address to
// dst's, and updates each router whose FIB forwards the two differently.
func (n *Network) AggregateRenumberCost() float64 {
	nn := n.N()
	// port[d*nn+r] is router r's port for AddrAt(d, 1). Every FIB holds
	// every subnet, so each lookup matches.
	port := make([]int, nn*nn)
	for d := 0; d < nn; d++ {
		for r := 0; r < nn; r++ {
			port[d*nn+r], _ = n.Port(r, AddrAt(d, 1))
		}
	}
	total := 0.0
	for src := 0; src < nn; src++ {
		from := port[src*nn : (src+1)*nn]
		for dst := 0; dst < nn; dst++ {
			if src == dst {
				continue
			}
			routers := 0
			for r, p := range port[dst*nn : (dst+1)*nn] {
				if p != from[r] {
					routers++
				}
			}
			total += float64(routers) / float64(nn)
		}
	}
	// Uniform i.i.d. (src, dst) including self-moves, matching the §5
	// Markov process: self-moves contribute zero updates.
	return total / float64(nn*nn)
}
