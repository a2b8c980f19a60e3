package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"locind/internal/expt"
)

// workload is one closed-loop workload of the benchmark: a single client
// goroutine issues the next op only when the previous one has returned.
// Every caller of the paths measured here waits for its reply, so closed
// loop is the honest model.
type workload struct {
	name string
	why  string
	// setups is how many times set-up runs from scratch; setup_s is the
	// median. warmup ops run after the set-up clock stops and before the
	// measurement clock starts.
	setups, warmup int
	// ops is the fixed number of measured ops of a run, sized for some 17 s
	// on the 2-core reference box (README.md, Sizing). The same seed thus
	// gives the same ops over the same inputs, and allocation and exact
	// counts repeat; -seconds is only the wall ceiling a slower box stops at.
	ops int
	// tail marks a workload whose op rate supports a p99 even in the short
	// runs of a traced run; it is then reported as a per-layer metric.
	tail bool
	// size is the scale of the inputs; everything but the tests runs at
	// fullSize.
	size sizes
	new  func(seed int64, sz sizes) instance
	// layers derives this workload's per-layer metrics in a traced run.
	layers func(ctx context.Context, lc *layerCtx) error
}

// sizes is the scale of a workload's inputs.
type sizes struct {
	world   func() expt.Config // the configuration every world is built at
	names   int                // names preloaded into the gns cluster
	devices int                // devices in the nomad fleet
	calls   int                // calls per isolated layer timing in a traced run
}

// fullSize is the scale the benchmark is defined at. 6000 names preload in
// under a second, so that set-up can run three times a run; the fleet is
// large enough that the engine cannot run out of batches before a run's op
// count is done (a device seals one to two batches per simulated day).
var fullSize = sizes{world: expt.QuickConfig, names: 6000, devices: 50000, calls: 2000}

// instance is one run's live state of a workload.
type instance interface {
	// setup builds the workload's state from scratch. It is called
	// workload.setups times; an instance may keep or replace what earlier
	// calls built.
	setup(ctx context.Context) error
	// run drives ops through m until m says stop, recording spans on rec
	// when rec is non-nil.
	run(ctx context.Context, m *meter, rec *recorder) error
	// check verifies the outputs of every op run made.
	check(ctx context.Context) error
	close()
}

// The five workloads, in the order they are run and printed.
var workloads = []workload{worldBuild, evalAll, gnsUpdate, gnsLookup, nomadSoak}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one end-to-end run of one workload produced.
type result struct {
	Workload   string            `json:"workload"`
	Provenance provenance        `json:"provenance"`
	Correct    bool              `json:"correct"`
	CheckError string            `json:"check_error,omitempty"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Samples    int               `json:"samples"`
	Ops        int               `json:"ops_sized_for"`
	HitCeiling bool              `json:"hit_wall_ceiling"`
	Metrics    map[string]metric `json:"metrics"`
	// Info holds numbers printed for the reader but not gated: the demoted
	// timing metrics and the other percentiles, with the sample count they
	// rest on.
	Info map[string]metric `json:"info"`
}

// The end-to-end metric names, shared by every workload. Direction and
// regression bound live in BENCHMARK.json.
const (
	mSetup = "setup_s"
	mP10   = "latency_p10_ms"
	mAlloc = "alloc_kb_per_op"
	mHeap  = "retained_heap_mb"
)

var endToEndOrder = []string{mSetup, mP10, mAlloc, mHeap}

// The timing metrics the issue planned as end-to-end metrics and the A/A
// record demoted: on the shared reference box ten runs of one workload
// spread by up to 36 % on them, beyond the widest bound the contract allows
// (NOISE.md). They are measured and printed on every run all the same, and a
// traced run reports them per workload as <workload>.<name>.
const (
	mThroughput = "throughput_ops_s"
	mP50        = "latency_p50_ms"
	mCPU        = "cpu_ms_per_op"
)

var demoted = []contractMetric{
	{Name: mThroughput, Unit: "1/s", Better: "higher"},
	{Name: mP50, Unit: "ms", Better: "lower"},
	{Name: mCPU, Unit: "ms", Better: "lower"},
}

// runEndToEnd performs one untraced (rec == nil) or traced run of w and
// derives the end-to-end metrics from it.
func runEndToEnd(ctx context.Context, w workload, prov provenance, rec *recorder) (result, error) {
	res := result{Workload: w.name, Provenance: prov, Metrics: map[string]metric{}, Info: map[string]metric{}}
	inst := w.new(prov.Seed, w.size)
	defer inst.close()

	setupTimes := make([]float64, 0, w.setups)
	for rep := 0; rep < w.setups; rep++ {
		t := time.Now()
		if err := inst.setup(ctx); err != nil {
			return res, fmt.Errorf("%s: set-up %d: %w", w.name, rep, err)
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
	}

	m := newMeter(time.Duration(prov.Seconds*float64(time.Second)), w.ops, w.warmup)
	if err := inst.run(ctx, m, rec); err != nil {
		return res, fmt.Errorf("%s: run: %w", w.name, err)
	}
	m.end() // a no-op unless the workload ran out of input before its op count was done
	setupTimes = append(setupTimes, m.resetups...)
	res.Attempted = m.ops()
	res.Failed = m.failed
	res.Samples = len(m.samples)
	res.Ops = w.ops
	res.HitCeiling = m.ops() < w.ops
	if res.Samples < 1 {
		return res, fmt.Errorf("%s: no op completed of %d attempted", w.name, res.Attempted)
	}

	// Throughput, CPU and allocation are totals over the whole measured
	// interval: unlike a percentile of the op time they see a periodic
	// stall, a slow tail and whatever the program does between ops.
	ops := float64(res.Attempted)
	lat := m.sortedMillis()
	res.Metrics[mSetup] = metric{median(setupTimes), "s"}
	res.Metrics[mP10] = metric{percentile(lat, 0.1), "ms"}
	res.Metrics[mAlloc] = metric{float64(m.alloc) / 1024 / ops, "KiB"}
	res.Info[mThroughput] = metric{ops / m.wall.Seconds(), "1/s"}
	res.Info[mP50] = metric{percentile(lat, 0.5), "ms"}
	res.Info[mCPU] = metric{1e3 * m.cpu.Seconds() / ops, "ms"}
	for _, q := range []float64{0.90, 0.99} {
		// A tail is printed only on a sample that supports it, except the
		// p99 a traced run must report whatever its length.
		if tailSupported(len(lat), q) || (w.tail && q == 0.99) {
			res.Info[fmt.Sprintf("latency_p%.0f_ms", q*100)] = metric{percentile(lat, q), "ms"}
		}
	}
	res.Info["latency_max_ms"] = metric{lat[len(lat)-1], "ms"}
	res.Info["measured_wall_s"] = metric{m.wall.Seconds(), "s"}

	// Drop the sample buffer before measuring the heap, so that only the
	// workload's own state — still reachable through inst — is counted.
	m.samples, lat = nil, nil
	res.Metrics[mHeap] = metric{float64(retainedHeap()) / (1 << 20), "MiB"}

	if err := inst.check(ctx); err != nil {
		res.CheckError = err.Error()
	}
	if c, ok := inst.(interface{ counts(map[string]metric) }); ok {
		c.counts(res.Info)
	}
	if m.firstErr != nil {
		res.CheckError = strings.TrimSpace(res.CheckError + " first failed op: " + m.firstErr.Error())
	}
	res.Correct = res.CheckError == "" && res.Failed == 0
	return res, nil
}
