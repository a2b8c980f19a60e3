// Package faultnet is a deterministic fault-injecting transport: wrappers
// around net.PacketConn (for the GNS UDP resolution protocol) and
// net.Conn/net.Listener (for the NomadLog and vantage HTTP upload
// pipelines) that drop, delay and duplicate datagrams, refuse and reset
// connections, and stall streams — the failure vocabulary of the hostile
// networks the paper measured on (intermittent cellular/WiFi uplinks,
// PlanetLab node churn).
//
// Every fault decision is drawn from one explicit *rand.Rand owned by an
// Env, in a fixed per-packet/per-connection order, and every injected wait
// goes through the Env's sleep hook. Given the same seed and the same
// sequence of operations, a chaos run therefore replays byte-for-byte:
// identical drops, identical delivery orders, identical resets. Tests
// assert this by comparing Env.Trace() across runs.
package faultnet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"locind/internal/obs"
)

// Env owns the randomness and the clock for one fault-injection domain.
// All wrappers sharing an Env draw from the same seeded stream under one
// lock, which is what makes single-client chaos runs fully deterministic.
type Env struct {
	mu      sync.Mutex
	rng     *rand.Rand
	sleep   func(time.Duration)
	trace   []string
	stats   Stats
	metrics Metrics // value copy installed by SetMetrics; nil handles no-op
	tracer  *obs.Tracer
}

// Stats counts injected faults, by kind.
type Stats struct {
	Dropped    int
	Duplicated int
	Delayed    int
	Refused    int
	Reset      int
	Stalled    int
	// Partitioned counts datagrams swallowed by a Partition cut. Unlike
	// the probabilistic faults above a cut consumes no random variates; a
	// read swallowed by one draws none at all (see PacketConn).
	Partitioned int
}

// NewEnv creates a fault domain seeded with seed. Waits use time.Sleep
// until SetSleep installs a virtual clock.
func NewEnv(seed int64) *Env {
	return &Env{rng: rand.New(rand.NewSource(seed)), sleep: time.Sleep}
}

// SetSleep replaces the wait implementation — the virtual-clock hook. Tests
// install a no-op (or a recording function) so delay faults cost no wall
// time while remaining part of the deterministic trace.
//
//lint:allow reach the chaos tests of gns, vantage and nomad (chaos_test.go, device_test.go) install a no-op clock so injected delays cost no wall time
func (e *Env) SetSleep(fn func(time.Duration)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if fn == nil {
		fn = time.Sleep
	}
	e.sleep = fn
}

// Stats returns a snapshot of the fault counters.
func (e *Env) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Trace returns the ordered log of injected faults. Two runs with the same
// seed and operation sequence produce identical traces.
//
//lint:allow reach gns's TestChaosDeterministicReplay (chaos_test.go) compares two runs' traces, the replay contract of the package comment
func (e *Env) Trace() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.trace...)
}

// SetTracer mirrors every injected fault into tr as a zero-duration span
// named "faultnet" labelled with the trace-log line, in the same order as
// Trace(). Fault spans share the causal-tree export with request spans, so
// a Chrome trace shows which faults interleaved with which retries. nil
// detaches the tracer.
//
//lint:allow reach gns's trace_chaos_test.go checks fault spans against the trace one for one
func (e *Env) SetTracer(tr *obs.Tracer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tracer = tr
}

// record appends one fault event to the trace. Callers hold e.mu.
func (e *Env) record(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	e.trace = append(e.trace, msg)
	// The tracer has its own lock and Start/End never call back into Env,
	// so recording a span under e.mu cannot deadlock.
	e.tracer.Start("faultnet", "event", msg).End()
}

// doSleep waits via the hook without holding the lock.
func (e *Env) doSleep(d time.Duration) {
	e.mu.Lock()
	fn := e.sleep
	e.mu.Unlock()
	if d > 0 {
		fn(d)
	}
}
