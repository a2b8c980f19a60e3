package obs

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Profiler brackets the phases of a run — world build, per-collector
// displacement walks, figure drivers — and records what each phase cost:
// wall time (from an injected clock, zero without one), runtime.MemStats
// allocation deltas, a goroutine high-water mark sampled at the phase
// boundaries, and the delta of every integer counter in the attached
// Registry (retries, injected faults, rows, ...).
//
// The PR-4 contract extends to profiling: every method is nil-safe, the
// profiler only reads — it never steers — and its artifact is
// deterministic modulo timing: for a fixed seed the phase list and every
// counter delta replay exactly; only the wall/alloc/goroutine columns
// depend on the host.
type Profiler struct {
	mu     sync.Mutex
	reg    *Registry
	now    func() time.Duration
	phases []PhaseStats
}

// PhaseStats is the cost record of one completed phase.
type PhaseStats struct {
	Name string `json:"name"`
	// Wall is the phase duration from the injected clock (0 without one).
	Wall time.Duration `json:"wall_ns"`
	// AllocBytes and Mallocs are runtime.MemStats cumulative deltas
	// (TotalAlloc / Mallocs) across the phase.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	// GoroutineHigh is the goroutine high-water mark as sampled at the
	// phase boundaries (the max of the begin and end samples).
	GoroutineHigh int `json:"goroutine_high"`
	// Counters holds the non-zero deltas of every integer series in the
	// attached registry across the phase — retry and fault counters,
	// rows. Deterministic for a fixed seed.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// NewProfiler builds a profiler reading counter deltas from reg (which may
// be nil: phases then carry no counter deltas).
func NewProfiler(reg *Registry) *Profiler {
	return &Profiler{reg: reg}
}

// SetNow installs the monotonic clock used for phase wall times. The
// binaries inject a wall-clock closure; simulations leave it unset and get
// structure-only profiles. nil clears the clock.
func (p *Profiler) SetNow(fn func() time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.now = fn
	p.mu.Unlock()
}

// ProfPhase is one open phase; End commits it.
type ProfPhase struct {
	p          *Profiler
	name       string
	start      time.Duration
	mem        runtime.MemStats
	goroutines int
	counters   map[string]int64
	ended      bool
}

// Begin opens a phase. Phases may nest or interleave freely — each handle
// snapshots its own baselines — though the conventional use is
// sequential brackets around each stage of a run. Nil profiler → nil
// handle, on which End is a no-op.
func (p *Profiler) Begin(name string) *ProfPhase {
	if p == nil {
		return nil
	}
	ph := &ProfPhase{p: p, name: name, goroutines: runtime.NumGoroutine()}
	p.mu.Lock()
	if p.now != nil {
		ph.start = p.now()
	}
	p.mu.Unlock()
	ph.counters = snapshotInts(p.reg)
	runtime.ReadMemStats(&ph.mem)
	return ph
}

// End commits the phase. Exactly once: a second End is a no-op.
func (ph *ProfPhase) End() {
	if ph == nil || ph.ended {
		return
	}
	ph.ended = true
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	p := ph.p
	st := PhaseStats{
		Name:          ph.name,
		AllocBytes:    mem.TotalAlloc - ph.mem.TotalAlloc,
		Mallocs:       mem.Mallocs - ph.mem.Mallocs,
		GoroutineHigh: max(ph.goroutines, runtime.NumGoroutine()),
	}
	for k, v := range snapshotInts(p.reg) {
		if d := v - ph.counters[k]; d != 0 {
			if st.Counters == nil {
				st.Counters = map[string]int64{}
			}
			st.Counters[k] = d
		}
	}
	p.mu.Lock()
	if p.now != nil {
		st.Wall = p.now() - ph.start
	}
	p.phases = append(p.phases, st)
	p.mu.Unlock()
}

// snapshotInts reads every integer-valued series from reg (counters,
// gauges, histogram counts), keyed by exposition name.
func snapshotInts(reg *Registry) map[string]int64 {
	out := map[string]int64{}
	if reg == nil {
		return out
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, s := range reg.series {
		key := s.name + wrapLabels(s.labels)
		switch s.kind {
		case kindCounter:
			out[key] = s.c.Value()
		case kindGauge:
			out[key] = s.g.Value()
		case kindHistogram:
			out[key+"_count"] = s.h.Count()
		}
	}
	return out
}

// Phases returns the committed phases in completion order.
func (p *Profiler) Phases() []PhaseStats {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]PhaseStats(nil), p.phases...)
}

// WriteJSON renders the committed phases as the machine-readable run
// report artifact.
func (p *Profiler) WriteJSON(b *strings.Builder) {
	phases := p.Phases()
	if phases == nil {
		phases = []PhaseStats{}
	}
	enc, err := json.MarshalIndent(struct {
		Phases []PhaseStats `json:"phases"`
	}{phases}, "", "  ")
	if err != nil {
		fmt.Fprintf(b, `{"error":%q}`, err.Error())
		return
	}
	b.Write(enc) //nolint:errcheck // strings.Builder cannot fail
	b.WriteByte('\n')
}

// WriteReport renders the committed phases as RUNREPORT.md: a summary
// table plus per-phase counter deltas. Counter sections are sorted by
// name, so for a fixed seed everything except the timing columns is
// byte-identical across runs and hosts.
func (p *Profiler) WriteReport(b *strings.Builder) {
	b.WriteString("# RUNREPORT\n\n")
	b.WriteString("Per-phase resource profile of one run. Counter deltas replay exactly\n")
	b.WriteString("for a fixed seed; the wall/alloc/goroutine columns depend on the host\n")
	b.WriteString("and are excluded from reproducibility comparisons.\n\n")
	phases := p.Phases()
	if len(phases) == 0 {
		b.WriteString("(no phases recorded)\n")
		return
	}
	b.WriteString("| phase | wall | alloc | mallocs | goroutines (hwm) |\n")
	b.WriteString("|---|---:|---:|---:|---:|\n")
	for _, ps := range phases {
		fmt.Fprintf(b, "| %s | %v | %s | %d | %d |\n",
			ps.Name, ps.Wall.Round(time.Millisecond), formatBytes(ps.AllocBytes),
			ps.Mallocs, ps.GoroutineHigh)
	}
	for _, ps := range phases {
		if len(ps.Counters) == 0 {
			continue
		}
		fmt.Fprintf(b, "\n## %s — counter deltas\n\n", ps.Name)
		b.WriteString("| counter | delta |\n|---|---:|\n")
		keys := make([]string, 0, len(ps.Counters))
		for k := range ps.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, "| %s | %d |\n", k, ps.Counters[k])
		}
	}
}

// formatBytes renders a byte count with a binary-unit suffix.
func formatBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
