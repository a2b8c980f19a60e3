package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// meter is the measurement clock of one closed-loop run. The driver of a
// workload calls observe once per completed op; the meter discards the
// warm-up ops, starts the clocks on the first measured op, and says stop
// once the workload's fixed op count is done — or, on a box too slow for
// that, once the wall ceiling is reached. One meter serves every workload,
// including nomad-soak where the engine — not the bench — owns the loop and
// ops arrive through an Uploader callback.
type meter struct {
	ceiling time.Duration // measured wall after which the run stops short
	target  int           // measured ops the run is sized for
	warmup  int           // ops discarded before the clocks start

	seen     int     // ops observed, warm-up included
	failed   int     // ops that returned an error, warm-up included
	firstErr error   // what the first failed op returned
	samples  []int64 // measured successful op times, ns
	running  bool
	done     bool

	// The clocks: wall, cpu and alloc hold what stopped intervals have
	// accumulated, start* where the running interval began.
	start      time.Time
	startCPU   time.Duration
	startAlloc uint64
	wall       time.Duration
	cpu        time.Duration
	alloc      uint64

	resetups []float64 // seconds each resetup call took
}

// newMeter allocates the sample buffer up front so that growing it never
// shows up in the measured allocation count.
func newMeter(ceiling time.Duration, target, warmup int) *meter {
	return &meter{ceiling: ceiling, target: target, warmup: warmup, samples: make([]int64, 0, target)}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// begin starts the measurement clocks. With no warm-up it must be called
// before the first op; otherwise observe calls it after the last warm-up op.
func (m *meter) begin() {
	m.startAlloc = totalAlloc()
	m.startCPU = cpuTime()
	m.start = time.Now()
	m.running = true
}

// stop adds the running interval to the totals.
func (m *meter) stop() {
	m.wall += time.Since(m.start)
	m.cpu += cpuTime() - m.startCPU
	m.alloc += totalAlloc() - m.startAlloc
	m.running = false
}

func (m *meter) end() {
	if m.running {
		m.stop()
	}
	m.done = true
}

// offTheClock runs fn — work that is no part of an op but has to happen in
// the middle of a run — with the measurement clocks stopped.
func (m *meter) offTheClock(fn func() error) error {
	wasRunning := m.running
	if wasRunning {
		m.stop()
	}
	err := fn()
	if wasRunning {
		m.begin()
	}
	return err
}

// resetup runs fn, a set-up the workload repeats in the middle of a run, off
// the clock and keeps how long it took as one more set-up sample.
func (m *meter) resetup(fn func() error) error {
	t := time.Now()
	err := m.offTheClock(fn)
	m.resetups = append(m.resetups, time.Since(t).Seconds())
	return err
}

// observe records one completed op and reports whether the run is over.
func (m *meter) observe(d time.Duration, err error) (stop bool) {
	if m.done {
		return true
	}
	m.seen++
	if err != nil && m.firstErr == nil {
		m.firstErr = err
	}
	if !m.running {
		// Warm-up: a failure here still counts, since the checks run over
		// every op the workload made.
		if err != nil {
			m.failed++
		}
		if m.seen >= m.warmup {
			m.begin()
		}
		return false
	}
	if err != nil {
		m.failed++
	} else {
		m.samples = append(m.samples, int64(d))
	}
	if m.ops() >= m.target || m.wall+time.Since(m.start) >= m.ceiling {
		m.end()
		return true
	}
	return false
}

// loop drives op in a closed loop — one client, the next op issued only
// when the previous one has returned — until the meter says stop.
func (m *meter) loop(op func(i int) error) {
	if m.warmup == 0 {
		m.begin()
	}
	for i := 0; ; i++ {
		t := time.Now()
		err := op(i)
		if m.observe(time.Since(t), err) {
			return
		}
	}
}

// ops is the number of measured ops attempted.
func (m *meter) ops() int { return m.seen - m.warmup }

// sortedMillis returns the measured op times in ascending order, in ms.
func (m *meter) sortedMillis() []float64 {
	out := make([]float64, len(m.samples))
	for i, ns := range m.samples {
		out[i] = float64(ns) / 1e6
	}
	sort.Float64s(out)
	return out
}

// retainedHeap forces a full collection and returns the live heap in bytes.
// The caller keeps the workload's state reachable across the call and has
// already dropped the sample buffer, so only the program's own state counts.
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what finalizers of the first released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
