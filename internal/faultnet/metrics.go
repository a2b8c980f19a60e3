package faultnet

import "locind/internal/obs"

// Metrics mirrors Stats into obs counters, one series per fault kind, so a
// live scrape of locind_faultnet_injected_total{kind=...} agrees exactly
// with Env.Stats() — chaos tests assert injected == observed. Zero-value
// fields (nil handles) record nothing.
type Metrics struct {
	Dropped     *obs.Counter
	Duplicated  *obs.Counter
	Delayed     *obs.Counter
	Refused     *obs.Counter
	Reset       *obs.Counter
	Stalled     *obs.Counter
	Partitioned *obs.Counter
}

// NewMetrics registers one locind_faultnet_injected_total series per fault
// kind on reg. A nil registry yields all-nil handles.
func NewMetrics(reg *obs.Registry) *Metrics {
	kind := func(k string) *obs.Counter {
		return reg.Counter("locind_faultnet_injected_total", "faults injected, by kind", "kind", k)
	}
	return &Metrics{
		Dropped:     kind("dropped"),
		Duplicated:  kind("duplicated"),
		Delayed:     kind("delayed"),
		Refused:     kind("refused"),
		Reset:       kind("reset"),
		Stalled:     kind("stalled"),
		Partitioned: kind("partitioned"),
	}
}

// SetMetrics installs m as the Env's live fault counters; every site that
// bumps Stats bumps the matching counter too. Nil detaches metrics.
func (e *Env) SetMetrics(m *Metrics) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if m == nil {
		e.metrics = Metrics{}
		return
	}
	e.metrics = *m
}
