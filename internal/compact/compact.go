// Package compact implements a landmark-based compact routing scheme in the
// style of Thorup–Zwick, the theory the paper leans on in §2.1 to frame the
// stretch-versus-forwarding-state trade-off ("with N flat identifiers, to
// be within 3x stretch of shortest-path, each router needs Ω(N) entries;
// for up to 5x stretch, Ω(√N)").
//
// Each router stores shortest-path entries for every landmark plus for its
// local cluster (the nodes strictly closer to it than to their own nearest
// landmark); any other destination routes via that destination's nearest
// landmark. With ~√n landmarks this yields ~√n-sized tables and worst-case
// multiplicative stretch 3, which the tests verify empirically against
// exact shortest paths.
package compact

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"locind/internal/topology"
)

// Scheme is a compact routing instance over a topology.
type Scheme struct {
	g         *topology.Graph
	landmarks []int
	// isLandmark[v] reports whether v is one of landmarks.
	isLandmark []bool
	// nearest[v] is v's closest landmark; distToLm[v] the distance to it.
	nearest  []int
	distToLm []int
	// clusterSize[r] counts the destinations r keeps exact entries for.
	clusterSize []int
	// hops is the graph's shared table; a landmark's distances are its row.
	hops [][]int
}

// Address is the compact "name" of a node: which landmark it homes to and
// the node itself (the piece of routing state a packet must carry).
type Address struct {
	Node     int
	Landmark int
}

// New builds a scheme with the given landmark count (0 picks ⌈√n⌉),
// choosing landmarks uniformly at random.
func New(g *topology.Graph, numLandmarks int, rng *rand.Rand) (*Scheme, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("compact: empty topology")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("compact: topology must be connected")
	}
	if numLandmarks <= 0 {
		numLandmarks = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if numLandmarks > n {
		numLandmarks = n
	}
	perm := rng.Perm(n)
	lms := append([]int(nil), perm[:numLandmarks]...)
	sort.Ints(lms)

	s := &Scheme{
		g:           g,
		landmarks:   lms,
		isLandmark:  make([]bool, n),
		nearest:     make([]int, n),
		distToLm:    make([]int, n),
		clusterSize: make([]int, n),
		hops:        g.AllPairsHops(),
	}
	for _, lm := range lms {
		s.isLandmark[lm] = true
	}
	for v := 0; v < n; v++ {
		bestLm, bestD := lms[0], s.hops[lms[0]][v]
		for _, lm := range lms[1:] {
			if s.hops[lm][v] < bestD {
				bestLm, bestD = lm, s.hops[lm][v]
			}
		}
		s.nearest[v] = bestLm
		s.distToLm[v] = bestD
	}
	for r := 0; r < n; r++ {
		for w := 0; w < n; w++ {
			if w != r && s.inCluster(r, w) {
				s.clusterSize[r]++
			}
		}
	}
	return s, nil
}

// inCluster reports whether r keeps an exact entry for w != r: dist(r, w)
// < dist(w, nearest(w)), Thorup–Zwick's condition, which bounds both table
// size and stretch. It never holds for a landmark w.
func (s *Scheme) inCluster(r, w int) bool {
	return s.hops[r][w] < s.distToLm[w]
}

// AddressOf returns the compact address of node v.
func (s *Scheme) AddressOf(v int) Address {
	return Address{Node: v, Landmark: s.nearest[v]}
}

// TableSize returns the number of routing entries router r keeps: one per
// landmark plus its cluster.
func (s *Scheme) TableSize(r int) int {
	return len(s.landmarks) + s.clusterSize[r]
}

// MaxTableSize returns the largest table in the scheme.
func (s *Scheme) MaxTableSize() int {
	max := 0
	for r := 0; r < s.g.N(); r++ {
		if t := s.TableSize(r); t > max {
			max = t
		}
	}
	return max
}

// MeanTableSize returns the average table size.
func (s *Scheme) MeanTableSize() float64 {
	total := 0
	for r := 0; r < s.g.N(); r++ {
		total += s.TableSize(r)
	}
	return float64(total) / float64(s.g.N())
}

// Route returns the hop count of the compact route from src to the given
// address: direct when the destination is a landmark or in src's cluster,
// otherwise via the destination's landmark. A src or node outside the
// topology, or an address naming a landmark this scheme does not know, is
// a malformed packet, reported as an error.
func (s *Scheme) Route(src int, dst Address) (int, error) {
	n := s.g.N()
	if src < 0 || src >= n || dst.Node < 0 || dst.Node >= n {
		return 0, fmt.Errorf("compact: route %d -> %d outside [0, %d)", src, dst.Node, n)
	}
	if src == dst.Node {
		return 0, nil
	}
	if s.isLandmark[dst.Node] || s.inCluster(src, dst.Node) {
		return s.hops[src][dst.Node], nil
	}
	// Via the landmark: src -> lm(dst) -> dst.
	lm := dst.Landmark
	if lm < 0 || lm >= n || !s.isLandmark[lm] {
		return 0, fmt.Errorf("compact: address with unknown landmark %d", lm)
	}
	return s.hops[lm][src] + s.hops[lm][dst.Node], nil
}

// Stretch returns the multiplicative stretch of the compact route from src
// to dst (1.0 = shortest path). Adjacent-or-same pairs return 1.
func (s *Scheme) Stretch(src, dst int) (float64, error) {
	direct := s.hops[src][dst]
	if direct == 0 {
		return 1, nil
	}
	route, err := s.Route(src, s.AddressOf(dst))
	if err != nil {
		return 0, err
	}
	return float64(route) / float64(direct), nil
}

// Evaluation summarizes a scheme against exact shortest-path routing.
type Evaluation struct {
	N             int
	Landmarks     int
	MeanTable     float64
	MaxTable      int
	FlatTable     int // what shortest-path-over-flat-names would need: n-1
	MeanStretch   float64
	MaxStretch    float64
	WorstCasePair [2]int
}

// Evaluate measures stretch over all ordered pairs.
func (s *Scheme) Evaluate() (Evaluation, error) {
	n := s.g.N()
	ev := Evaluation{
		N:         n,
		Landmarks: len(s.landmarks),
		MeanTable: s.MeanTableSize(),
		MaxTable:  s.MaxTableSize(),
		FlatTable: n - 1,
	}
	total := 0.0
	count := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			st, err := s.Stretch(src, dst)
			if err != nil {
				return ev, err
			}
			total += st
			count++
			if st > ev.MaxStretch {
				ev.MaxStretch = st
				ev.WorstCasePair = [2]int{src, dst}
			}
		}
	}
	if count > 0 {
		ev.MeanStretch = total / float64(count)
	}
	return ev, nil
}

// String renders the evaluation.
func (ev Evaluation) String() string {
	return fmt.Sprintf("n=%d landmarks=%d table(mean=%.1f,max=%d,flat=%d) stretch(mean=%.3f,max=%.2f)",
		ev.N, ev.Landmarks, ev.MeanTable, ev.MaxTable, ev.FlatTable, ev.MeanStretch, ev.MaxStretch)
}
