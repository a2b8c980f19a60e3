package cluster

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"

	"locind/internal/faultnet"
	"locind/internal/gns"
	"locind/internal/netaddr"
)

// FNV-1a 64-bit parameters (hash/fnv), inlined so the placement hashes run
// on the stack instead of allocating a hash.Hash64 and boxing fmt arguments
// per shard and per replica on every operation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvString folds s into the running FNV-1a hash h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// fnvIndex folds the decimal rendering of i into h.
func fnvIndex(h uint64, i int) uint64 {
	var buf [20]byte
	for _, b := range strconv.AppendInt(buf[:0], int64(i), 10) {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// ShardOf places name on one of shards shards by highest-random-weight
// (rendezvous) hashing: each shard's weight is the FNV-1a hash of
// "name|shard", and the name lands on the heaviest. Stable under shard-set
// growth — adding a shard moves only the names it wins — and needs no
// shared shard map, so every client computes the same placement
// independently. The name and separator are hashed once and each shard's
// index folded into that prefix; the weights are those of hashing the whole
// string per shard (pinned by TestPlacementMatchesFNVReference).
//
//lint:zeroalloc per call
func ShardOf(name string, shards int) int {
	prefix := (fnvString(fnvOffset64, name) ^ '|') * fnvPrime64
	best, bestW := 0, uint64(0)
	for s := 0; s < shards; s++ {
		if w := fnvIndex(prefix, s); w > bestW || (w == bestW && s < best) {
			best, bestW = s, w
		}
	}
	return best
}

// Config sizes a cluster.
type Config struct {
	// Shards is the number of consistent-hash shards (N).
	Shards int
	// Replicas is the replication factor per shard (R). Quorum writes need
	// a majority of R acks.
	Replicas int
	// Faults, when non-zero, applies per-datagram fault injection to every
	// node's transport (both directions), drawn from the cluster's Env.
	Faults faultnet.PacketFaults
}

// Node is one replica server: shard s, replica index r, its local store,
// and the UDP server fronting it.
type Node struct {
	Shard, Replica int
	Store          *Store
	srv            *gns.Server
	addr           string
}

// Addr returns the node's bound UDP address.
func (n *Node) Addr() string { return n.addr }

// Cluster is a running set of Shards×Replicas gns.Server nodes on
// loopback and the partition controller the chaos soak drives. Every
// transport is wrapped in faultnet, so whole shards can be killed
// (KillShard) and healed deterministically.
type Cluster struct {
	cfg   Config
	part  *faultnet.Partition
	nodes [][]*Node // [shard][replica]
}

// Start boots a cluster per cfg on loopback. env owns all fault
// randomness (it must not be nil; pass a fresh NewEnv for a fault-free
// cluster). sm may be nil for unobserved servers. Cancelling ctx shuts
// every node down.
func Start(ctx context.Context, cfg Config, env *faultnet.Env, sm *gns.ServerMetrics) (*Cluster, error) {
	if cfg.Shards < 1 || cfg.Replicas < 1 {
		return nil, fmt.Errorf("cluster: bad topology (shards=%d, replicas=%d)", cfg.Shards, cfg.Replicas)
	}
	c := &Cluster{cfg: cfg, part: env.NewPartition()}
	for s := 0; s < cfg.Shards; s++ {
		var row []*Node
		for r := 0; r < cfg.Replicas; r++ {
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				c.Close()
				return nil, err
			}
			// One wrapper carries both the seeded faults and the cuts: a
			// datagram read from across a cut is swallowed before any
			// receive fault is drawn for it, while a write draws its send
			// faults first and meets the cut after.
			conn := faultnet.WrapPacketConn(pc, env, cfg.Faults, cfg.Faults, c.part)
			store := NewStore(0)
			node := &Node{
				Shard:   s,
				Replica: r,
				Store:   store,
				srv:     gns.ServePacketConnObserved(ctx, store, conn, sm),
				addr:    pc.LocalAddr().String(),
			}
			row = append(row, node)
		}
		c.nodes = append(c.nodes, row)
	}
	return c, nil
}

// Close shuts every node down.
func (c *Cluster) Close() {
	for _, row := range c.nodes {
		for _, n := range row {
			if n != nil && n.srv != nil {
				n.srv.Close() //nolint:errcheck // shutdown; the transport error has nowhere to go
			}
		}
	}
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return c.cfg.Shards }

// Replicas returns the replication factor.
func (c *Cluster) Replicas() int { return c.cfg.Replicas }

// Node returns the node at (shard, replica).
func (c *Cluster) Node(shard, replica int) *Node { return c.nodes[shard][replica] }

// Addrs returns the address grid, [shard][replica] — the input a Client
// routes over.
func (c *Cluster) Addrs() [][]string {
	out := make([][]string, len(c.nodes))
	for s, row := range c.nodes {
		for _, n := range row {
			out[s] = append(out[s], n.addr)
		}
	}
	return out
}

// ShardAddrs returns the replica addresses of one shard.
func (c *Cluster) ShardAddrs(shard int) []string {
	out := make([]string, 0, c.cfg.Replicas)
	for _, n := range c.nodes[shard] {
		out = append(out, n.addr)
	}
	return out
}

// KillShard isolates every replica of shard — the whole-shard crash of the
// acceptance chaos test. Lookups route around it (hedge, then degrade to
// stale); quorum writes to the shard fail.
func (c *Cluster) KillShard(shard int) {
	c.part.Isolate(c.ShardAddrs(shard)...)
}

// KillReplica isolates a single replica; the shard keeps its quorum and
// the replica diverges until anti-entropy repairs it.
func (c *Cluster) KillReplica(shard, replica int) {
	c.part.Isolate(c.nodes[shard][replica].addr)
}

// Heal removes every partition cut.
func (c *Cluster) Heal() {
	c.part.HealAll()
}

// StateDigest renders the whole cluster's replica state canonically —
// shard by shard, replica by replica, sorted names with addresses and
// version vectors — and returns its FNV-1a hash with the full text. Two
// clusters that converged to identical state digest identically, byte for
// byte; the chaos acceptance test compares a healed+repaired run against
// the fault-free reference with exactly this.
func (c *Cluster) StateDigest() (uint64, string) {
	var b strings.Builder
	for s, row := range c.nodes {
		for r, n := range row {
			fmt.Fprintf(&b, "# shard %d replica %d (%d names)\n", s, r, n.Store.Len())
			n.Store.Digest(&b)
		}
	}
	return fnvString(fnvOffset64, b.String()), b.String()
}

// BindingDigest is StateDigest without the version vectors: the served
// content only (sorted names with their addresses, per replica). Two runs
// that converged to the same bindings binding-digest identically even when
// their causal histories differ — a chaos run's retried writes bump more
// counters than the fault-free reference run's, but after heal and repair
// both serve the same bytes, and this is the digest that proves it.
func (c *Cluster) BindingDigest() (uint64, string) {
	var b strings.Builder
	for s, row := range c.nodes {
		for r, n := range row {
			fmt.Fprintf(&b, "# shard %d replica %d (%d names)\n", s, r, n.Store.Len())
			for _, name := range n.Store.Names() {
				rec, _ := n.Store.Get(name)
				b.WriteString(bindingLine(name, rec.Addrs))
			}
		}
	}
	return fnvString(fnvOffset64, b.String()), b.String()
}

// bindingLine is the canonical one-binding rendering shared by
// BindingDigest and ExpectedBindingDigest — one definition, so the two can
// never drift apart.
func bindingLine(name string, addrs []netaddr.Addr) string {
	line := name + " ["
	for i, a := range addrs {
		if i > 0 {
			line += " "
		}
		line += a.String()
	}
	return line + "]\n"
}

// ExpectedBindingDigest computes, without running any cluster, the
// BindingDigest a (shards × replicas) cluster would produce after every
// binding in bindings committed everywhere: the fault-free reference state.
// A chaos run has converged exactly when its BindingDigest equals this.
func ExpectedBindingDigest(shards, replicas int, bindings map[string][]netaddr.Addr) (uint64, string) {
	names := make([]string, 0, len(bindings))
	for name := range bindings {
		names = append(names, name)
	}
	sort.Strings(names)
	// Distributing the sorted names keeps each shard's slice sorted too.
	perShard := make([][]string, shards)
	for _, name := range names {
		s := ShardOf(name, shards)
		perShard[s] = append(perShard[s], name)
	}
	var b strings.Builder
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			fmt.Fprintf(&b, "# shard %d replica %d (%d names)\n", s, r, len(perShard[s]))
			for _, name := range perShard[s] {
				b.WriteString(bindingLine(name, bindings[name]))
			}
		}
	}
	return fnvString(fnvOffset64, b.String()), b.String()
}
