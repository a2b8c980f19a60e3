// Command bench is the repository's benchmark: five closed-loop workloads
// driven only through public functions, from one process and one client
// goroutine, reporting four end-to-end metrics per workload and — in a
// separate traced run — a layer budget measured from outside. README.md in
// this directory has the tables; BENCHMARK.json at the repository root has
// the contract.
//
//	go run ./bench                        every workload, end to end
//	go run ./bench -workload gns-update   one workload
//	go run ./bench -trace 1               the layer budget
//	go run ./bench -selfcheck             A/A noise record (NOISE.md)
//
// The last line of standard output of a -workload run is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir is where traces and result files go; .gitignore names it.
var outDir = filepath.Join("bench", "out")

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (default: all of them, in order)")
		seed      = flag.Int64("seed", 20140817, "seed every input is generated from")
		seconds   = flag.Float64("seconds", 20, "wall ceiling: measured time after which a workload stops short of its op count")
		trace     = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of every workload and compare their medians")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	// One client goroutine, at most four cores: the reference box has two.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	ctx := context.Background()
	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(ctx, *seed, *seconds)
	case *trace != 0:
		err = mainTraced(ctx, newProvenance(*seed, *seconds, true))
	default:
		err = mainEndToEnd(ctx, *name, newProvenance(*seed, *seconds, false))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// driverLine is the contract's last line of standard output.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printDriverLine(l driverLine) error {
	buf, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// mainEndToEnd runs one workload (or all of them), prints every metric by
// name with its unit, writes bench/out/result-<workload>.json, and fails if
// any correctness check did.
func mainEndToEnd(ctx context.Context, name string, prov provenance) error {
	todo := workloads
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		todo = []workload{w}
	}
	fmt.Println("# bench:", prov)
	var last result
	var failed []string
	for _, w := range todo {
		res, err := runEndToEnd(ctx, w, prov, nil)
		if err != nil {
			return err
		}
		printResult(res)
		if err := writeJSON("result-"+w.name+".json", res); err != nil {
			return err
		}
		if !res.Correct {
			failed = append(failed, fmt.Sprintf("%s (%d of %d ops failed; %s)", w.name, res.Failed, res.Attempted, res.CheckError))
		}
		last = res
	}
	if name != "" {
		if err := printDriverLine(driverLine{last.Correct, last.Attempted, last.Failed, last.Metrics}); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("correctness check failed: %s", strings.Join(failed, "; "))
	}
	return nil
}

func printResult(r result) {
	verdict := "ok"
	if !r.Correct {
		verdict = "FAILED: " + r.CheckError
	}
	stopped := "op count done"
	if r.HitCeiling {
		stopped = "STOPPED AT THE WALL CEILING"
	}
	fmt.Printf("\n## %s — %d of %d ops attempted (%s), %d failed, %d latency samples, checks %s\n",
		r.Workload, r.Attempted, r.Ops, stopped, r.Failed, r.Samples, verdict)
	for _, k := range endToEndOrder {
		printMetric(k, r.Metrics[k], "")
	}
	for _, k := range sortedKeys(r.Info) {
		printMetric(k, r.Info[k], fmt.Sprintf("   (n=%d, not gated)", r.Samples))
	}
}

func printMetric(name string, m metric, note string) {
	fmt.Printf("  %-44s %16.6f %-6s%s\n", name, m.Value, m.Unit, note)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSON(file string, v any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, file), append(buf, '\n'), 0o644)
}

// layerCtx is what a workload's layer budget works from: the plain and the
// traced short run of that workload, the traced run's spans, and the map
// every layer metric of the whole traced run is collected in.
type layerCtx struct {
	seed          int64
	size          sizes
	plain, traced result
	spans         []span
	out           map[string]metric
}

// tracedDivisor divides each workload's op count for its plain and traced
// short runs, so that the whole traced run takes about as long as one
// end-to-end run.
const tracedDivisor = 10

// runTraced produces the layer budget. A traced run covers every
// workload's layers, whichever workload it was asked for: the contract has
// it print every per-layer metric, and the layers of five programs cannot
// be seen from one of them. Each workload is run twice at a tenth of its op
// count — plain, then with the span recorder on — and then its layers'
// public functions are timed in isolation.
func runTraced(ctx context.Context, ws []workload, prov provenance) (driverLine, error) {
	out := map[string]metric{}
	total := driverLine{Correct: true, Metrics: out}
	short := prov
	for _, w := range ws {
		w.setups = 1
		w.ops = max(2, w.ops/tracedDivisor)
		short.Traced = false
		plain, err := runEndToEnd(ctx, w, short, nil)
		if err != nil {
			return total, err
		}
		short.Traced = true
		rec := newRecorder()
		traced, err := runEndToEnd(ctx, w, short, rec)
		if err != nil {
			return total, err
		}
		if err := rec.write(outDir, w.name, short); err != nil {
			return total, err
		}
		for _, r := range []result{plain, traced} {
			total.Correct = total.Correct && r.Correct
			total.Attempted += r.Attempted
			total.Failed += r.Failed
			if !r.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s (%d ops failed)\n", w.name, r.CheckError, r.Failed)
			}
		}
		for _, d := range demoted {
			out[w.name+"."+d.Name] = plain.Info[d.Name]
		}
		if w.tail {
			out[w.name+".latency_p99_ms"] = plain.Info["latency_p99_ms"]
		}
		out["bench.trace_overhead_pct."+w.name] = metric{100 * (traced.Info[mP50].Value/plain.Info[mP50].Value - 1), "%"}
		lc := &layerCtx{seed: prov.Seed, size: w.size, plain: plain, traced: traced, spans: rec.spans, out: out}
		if err := w.layers(ctx, lc); err != nil {
			return total, fmt.Errorf("%s layers: %w", w.name, err)
		}
	}
	obsLayers(ws[0].size.calls, out)
	return total, nil
}

// mainTraced runs the traced run and prints and stores its layer budget.
func mainTraced(ctx context.Context, prov provenance) error {
	fmt.Println("# bench:", prov)
	total, err := runTraced(ctx, workloads, prov)
	if err != nil {
		return err
	}
	fmt.Println("\n## layer budget")
	for _, k := range sortedKeys(total.Metrics) {
		printMetric(k, total.Metrics[k], "")
	}
	if err := writeJSON("layers.json", struct {
		Provenance provenance        `json:"provenance"`
		Metrics    map[string]metric `json:"metrics"`
	}{prov, total.Metrics}); err != nil {
		return err
	}
	if err := printDriverLine(total); err != nil {
		return err
	}
	if !total.Correct {
		return fmt.Errorf("a correctness check failed in the traced run")
	}
	return nil
}

// sink keeps the compiler from discarding calls timed only for their cost.
var sink int

// medianCallNanos times each of n calls of fn on its own and returns the
// median in ns: the figure to hold against an op's p50 when a call is long
// enough (a network exchange) for its own tail to pull a mean away.
func medianCallNanos(n int, fn func() error) (float64, error) {
	per := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t)))
	}
	return median(per), nil
}

// nsPerCall times fn, which makes calls calls of the function under test,
// five times and returns the median cost of one call in ns.
func nsPerCall(calls int, fn func()) float64 {
	var per []float64
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		fn()
		per = append(per, float64(time.Since(t))/float64(calls))
	}
	return median(per)
}
