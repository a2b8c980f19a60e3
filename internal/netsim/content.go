package netsim

import (
	"fmt"
	"slices"
	"sort"
)

// ContentRouting extends the packet simulator to multihomed content
// principals: a named object replicated at several routers, with the two
// §3.3.1 forwarding strategies made operational. Best-port forwards each
// packet toward the closest replica only; controlled flooding duplicates
// the packet across every eligible port. The simulator exposes the cost the
// paper's model deliberately leaves out (§3.3.3): forwarding traffic, in
// total packet-hops, which is what flooding trades for its update savings
// and robustness. It is not safe for concurrent use.
type ContentRouting struct {
	net      *Network
	replicas map[string][]int
	// ports is portSet's scratch, reused by each call.
	ports []int
}

// NewContentRouting builds the content plane over net.
func NewContentRouting(net *Network) *ContentRouting {
	return &ContentRouting{net: net, replicas: map[string][]int{}}
}

// Register announces name from the given replica routers.
func (cr *ContentRouting) Register(name string, replicas []int) error {
	if len(replicas) == 0 {
		return fmt.Errorf("netsim: content %q needs at least one replica", name)
	}
	rs := append([]int(nil), replicas...)
	sort.Ints(rs)
	for _, r := range rs {
		if r < 0 || r >= cr.net.N() {
			return fmt.Errorf("netsim: replica %d out of range", r)
		}
	}
	cr.replicas[name] = rs
	return nil
}

// Replicas returns the current replica set of name.
func (cr *ContentRouting) Replicas(name string) []int { return cr.replicas[name] }

// bestReplica returns the replica closest to router r (lowest ID on ties)
// — best(FIB(R, d)) at the topology level.
func (cr *ContentRouting) bestReplica(r int, replicas []int) int {
	best := replicas[0]
	for _, rep := range replicas[1:] {
		if cr.net.Dist(r, rep) < cr.net.Dist(r, best) {
			best = rep
		}
	}
	return best
}

// portSet returns router r's eligible output ports for the replica set:
// the distinct next hops toward each replica (the local port when r hosts
// one), ascending. The slice is valid until the next call.
func (cr *ContentRouting) portSet(r int, replicas []int) []int {
	out := cr.ports[:0]
	for _, rep := range replicas {
		out = append(out, cr.net.ports[rep][r])
	}
	slices.Sort(out)
	cr.ports = slices.Compact(out)
	return cr.ports
}

// SendBest forwards one packet from source router src toward the closest
// replica of name, delivering at the first replica reached. Traffic equals
// hops (a single copy travels).
func (cr *ContentRouting) SendBest(src int, name string) Delivery {
	replicas := cr.replicas[name]
	if len(replicas) == 0 {
		return Delivery{}
	}
	target := cr.bestReplica(src, replicas)
	shortest := cr.net.Dist(src, target)
	at := src
	hops := 0
	ttl := 4 * cr.net.N()
	for at != target {
		// Re-evaluate the best replica at each hop, as per-router FIBs do.
		target = cr.bestReplica(at, replicas)
		if at == target {
			break
		}
		at = cr.net.ports[target][at]
		hops++
		if hops > ttl {
			return Delivery{Shortest: shortest, Hops: hops}
		}
	}
	return Delivery{Delivered: true, Hops: hops, Shortest: shortest}
}

// FloodDelivery reports a controlled-flooding transmission.
type FloodDelivery struct {
	Delivered bool
	// FirstHops is the hop count of the earliest copy to reach any replica.
	FirstHops int
	// Traffic is the total packet-hops spent across all duplicated copies —
	// the §3.3.3 cost axis the update-cost model does not see.
	Traffic int
	// Shortest is the distance to the closest replica.
	Shortest int
}

// SendFlood floods one packet from src across every eligible port at every
// router (with per-router duplicate suppression), delivering at every
// replica the flood reaches.
func (cr *ContentRouting) SendFlood(src int, name string) FloodDelivery {
	replicas := cr.replicas[name]
	if len(replicas) == 0 {
		return FloodDelivery{}
	}
	isReplica := map[int]bool{}
	for _, r := range replicas {
		isReplica[r] = true
	}
	shortest := cr.net.Dist(src, cr.bestReplica(src, replicas))

	visited := map[int]bool{src: true}
	frontier := []int{src}
	out := FloodDelivery{Shortest: shortest}
	if isReplica[src] {
		out.Delivered = true
		return out
	}
	hops := 0
	for len(frontier) > 0 {
		hops++
		var next []int
		for _, r := range frontier {
			for _, port := range cr.portSet(r, replicas) {
				if port == -1 || visited[port] {
					continue
				}
				visited[port] = true
				out.Traffic++
				if isReplica[port] && !out.Delivered {
					out.Delivered = true
					out.FirstHops = hops
				}
				next = append(next, port)
			}
		}
		frontier = next
	}
	return out
}

// MoveReplica relocates one replica of name and returns the §3.3.1 update
// costs of the event under both strategies: the number of routers whose
// best port changed, and the number whose eligible port set changed.
func (cr *ContentRouting) MoveReplica(name string, from, to int) (bestUpdates, floodUpdates int, err error) {
	old := cr.replicas[name]
	if len(old) == 0 {
		return 0, 0, fmt.Errorf("netsim: unknown content %q", name)
	}
	idx := -1
	for i, r := range old {
		if r == from {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, 0, fmt.Errorf("netsim: %q has no replica at %d", name, from)
	}
	nw := append([]int(nil), old...)
	nw[idx] = to
	sort.Ints(nw)

	var before []int
	for r := 0; r < cr.net.N(); r++ {
		ob := cr.bestPortOf(r, old)
		nb := cr.bestPortOf(r, nw)
		if ob != nb {
			bestUpdates++
		}
		before = append(before[:0], cr.portSet(r, old)...)
		if !slices.Equal(before, cr.portSet(r, nw)) {
			floodUpdates++
		}
	}
	cr.replicas[name] = nw
	return bestUpdates, floodUpdates, nil
}

// bestPortOf is the output port toward the closest replica at router r.
func (cr *ContentRouting) bestPortOf(r int, replicas []int) int {
	return cr.net.ports[cr.bestReplica(r, replicas)][r]
}
