package netsim

import "math/rand"

// Metrics aggregates a scenario run for one architecture.
type Metrics struct {
	Arch string

	Moves           int
	UpdatesPerMove  float64 // mean entities updated per mobility event
	AggUpdateCost   float64 // mean fraction of routers updated per event
	Sends           int
	DeliveredFrac   float64
	MeanStretch     float64 // additive hops over shortest path
	MeanSetupCost   float64
	HandoffAttempts int
	HandoffSuccess  float64 // fraction delivered during update propagation
	HandoffStretch  float64 // mean stretch of successful handoff deliveries
}

// Scenario is a reproducible random-mobility workload: one endpoint hops
// uniformly among routers while random sources send to it — the §5 Markov
// process made concrete, plus handoff probes for name-based routing.
type Scenario struct {
	Moves         int
	SendsPerMove  int
	HandoffProbes int // packets injected mid-wavefront per move (NameRouting only)
}

// Run executes the scenario for arch over net and aggregates metrics.
func (sc Scenario) Run(net *Network, arch Arch, rng *rand.Rand) Metrics {
	m := Metrics{Arch: arch.Name()}
	const ep = "u"
	loc := rng.Intn(net.N())
	arch.Attach(ep, loc)

	totalUpdates := 0
	totalStretch := 0
	totalSetup := 0
	delivered := 0
	handoffOK := 0
	handoffStretch := 0
	handoffDeliveredCount := 0

	for i := 0; i < sc.Moves; i++ {
		next := rng.Intn(net.N())
		// Handoff probes fire against the state transition itself.
		if nr, isNR := arch.(*NameRouting); isNR && sc.HandoffProbes > 0 && next != loc {
			for p := 0; p < sc.HandoffProbes; p++ {
				src := rng.Intn(net.N())
				t0 := rng.Intn(net.N()/2 + 1)
				d := nr.SendDuringHandoff(src, ep, loc, next, t0)
				m.HandoffAttempts++
				if d.Delivered {
					handoffOK++
					handoffStretch += d.Stretch()
					handoffDeliveredCount++
				}
			}
		}
		totalUpdates += arch.Move(ep, next)
		loc = next

		for s := 0; s < sc.SendsPerMove; s++ {
			src := rng.Intn(net.N())
			d := arch.Send(src, ep)
			m.Sends++
			totalSetup += d.SetupCost
			if d.Delivered {
				delivered++
				totalStretch += d.Stretch()
			}
		}
	}

	m.Moves = sc.Moves
	if sc.Moves > 0 {
		m.UpdatesPerMove = float64(totalUpdates) / float64(sc.Moves)
		m.AggUpdateCost = m.UpdatesPerMove / float64(net.N())
	}
	if m.Sends > 0 {
		m.DeliveredFrac = float64(delivered) / float64(m.Sends)
		m.MeanSetupCost = float64(totalSetup) / float64(m.Sends)
	}
	if delivered > 0 {
		m.MeanStretch = float64(totalStretch) / float64(delivered)
	}
	if m.HandoffAttempts > 0 {
		m.HandoffSuccess = float64(handoffOK) / float64(m.HandoffAttempts)
	}
	if handoffDeliveredCount > 0 {
		m.HandoffStretch = float64(handoffStretch) / float64(handoffDeliveredCount)
	}
	return m
}

// Compare runs the same scenario over all three architectures with
// identical workloads (same seed) — the §5 trade-off produced by packet
// forwarding instead of algebra.
func Compare(net *Network, res Resolver, sc Scenario, seed int64) []Metrics {
	archs := []Arch{
		NewHomeAgent(net),
		NewResolution(net, res),
		NewNameRouting(net),
	}
	out := make([]Metrics, 0, len(archs))
	for _, a := range archs {
		out = append(out, sc.Run(net, a, rand.New(rand.NewSource(seed))))
	}
	return out
}
