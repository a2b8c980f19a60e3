package expt

import (
	"locind/internal/core"
	"locind/internal/obs"
)

// Metrics is the evaluation engine's observability surface, attached via
// Config.Obs. Recording goes through nil-safe helpers, so the nil default
// keeps every driver on its uninstrumented path and — instrumented or not —
// drivers produce byte-identical results: the handles only count, they
// never steer.
type Metrics struct {
	// CollectorsDone counts collectors a driver has finished: a device
	// driver's one by one as each replay ends, a content pool's all at once
	// when its grid is filled, which is once per pool per session.
	CollectorsDone *obs.Counter
	// Rows counts result rows produced (scrape deltas give rows/sec).
	Rows *obs.Counter
	// Memo aggregates route-cache behaviour across every driver memo.
	Memo *core.MemoMetrics
}

// NewMetrics registers the evaluation families on reg. A nil registry
// yields all-nil handles.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		CollectorsDone: reg.Counter("locind_expt_collectors_done_total", "collectors finished by a driver: device drivers as each replay ends, content collectors all at once when a pool's grid is filled, once per pool per session"),
		Rows:           reg.Counter("locind_expt_rows_total", "result rows produced"),
		Memo:           core.NewMemoMetrics(reg),
	}
}

func (m *Metrics) collectorDone() {
	if m != nil {
		m.CollectorsDone.Inc()
	}
}

func (m *Metrics) rows(n int) {
	if m != nil {
		m.Rows.Add(int64(n))
	}
}

// memo builds a driver route cache, observed when metrics are attached.
func (c Config) memo(r core.RouteLookup) *core.Memo {
	if c.Obs == nil {
		return core.NewMemo(r)
	}
	return core.NewMemoObserved(r, c.Obs.Memo)
}
