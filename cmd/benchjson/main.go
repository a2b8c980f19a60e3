// Command benchjson turns `go test -bench` text piped to stdin into a
// numbered BENCH_<n>.json snapshot, so `make bench` leaves a growing
// trajectory of machine-readable performance records next to the code
// they measure. Each snapshot pairs the raw benchmark numbers with an
// obs reading of the route-memo hit rate over a quick-config evaluation
// pass: the two costs the engine trades off — wall clock per driver and
// cache effectiveness — land in one artifact.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/benchjson
//	go run ./cmd/benchjson -compare [-threshold PCT] [-annotate] old.json new.json
//
// The output index is the first free BENCH_<n>.json in -dir (default:
// the current directory), so successive runs append to the trajectory
// rather than overwrite it.
//
// -compare diffs two snapshots from that trajectory and exits 3 when any
// benchmark's ns/op grew past -threshold percent — the regression gate CI
// runs against the newest committed snapshot. The memo hit rate is printed
// beside the rows and does not decide the exit status. -annotate adds
// GitHub Actions ::warning lines.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"

	"locind/internal/cdn"
	"locind/internal/expt"
	"locind/internal/obs"
)

// benchLine matches one result row of `go test -bench` output, e.g.
//
//	BenchmarkFig8Parallel-8  12  95031415 ns/op  1234 B/op  56 allocs/op
//
// The -8 GOMAXPROCS suffix is split off, and the -benchmem columns are
// optional so plain -bench output parses too.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// contextLine matches the goos/goarch/cpu preamble go test prints.
var contextLine = regexp.MustCompile(`^(goos|goarch|pkg|cpu): (.+)$`)

type benchResult struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

type memoSnapshot struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

type snapshot struct {
	GoVersion  string            `json:"go_version"`
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []benchResult     `json:"benchmarks"`
	// Memo is the obs-observed route-cache behaviour of one quick-config
	// Fig8 + Fig11b pass, the same drivers the Sequential/Parallel
	// benchmark pairs measure.
	Memo memoSnapshot `json:"memo"`
}

func main() {
	dir := flag.String("dir", ".", "directory receiving BENCH_<n>.json")
	doCompare := flag.Bool("compare", false, "compare two snapshots instead of recording one: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 10, "ns/op growth (percent) beyond which -compare flags a regression")
	annotate := flag.Bool("annotate", false, "with -compare, emit GitHub Actions ::warning lines for regressions")
	flag.Parse()
	if *doCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare [-threshold PCT] [-annotate] old.json new.json")
			os.Exit(2)
		}
		regressions, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold, *annotate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if regressions > 0 {
			// A distinct exit code: CI wires this as a non-blocking
			// annotation, operators can still gate hard on it if they want.
			os.Exit(3)
		}
		return
	}
	if err := run(*dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(dir string) error {
	snap := snapshot{
		GoVersion: runtime.Version(),
		Context:   map[string]string{},
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := contextLine.FindStringSubmatch(line); m != nil {
			snap.Context[m[1]] = m[2]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		snap.Benchmarks = append(snap.Benchmarks, benchResult{
			Name:        m[1],
			Procs:       int(parseInt(m[2])),
			Iterations:  parseInt(m[3]),
			NsPerOp:     parseFloat(m[4]),
			BytesPerOp:  parseInt(m[5]),
			AllocsPerOp: parseInt(m[6]),
		})
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read stdin: %w", err)
	}
	if len(snap.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (pipe `go test -bench` output in)")
	}

	memo, err := measureMemo()
	if err != nil {
		return err
	}
	snap.Memo = memo

	path, err := nextFree(dir)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks, memo hit rate %.3f)\n", path, len(snap.Benchmarks), memo.HitRate)
	return nil
}

// measureMemo runs one quick-config evaluation pass with obs attached and
// reads the route-memo counters back. QuickConfig is fully seeded, so the
// numbers are reproducible across runs on any machine.
func measureMemo() (memoSnapshot, error) {
	reg := obs.NewRegistry()
	cfg := expt.QuickConfig()
	cfg.Obs = expt.NewMetrics(reg)
	w, err := expt.BuildWorld(cfg)
	if err != nil {
		return memoSnapshot{}, fmt.Errorf("build quick world: %w", err)
	}
	expt.RunFig8(w)
	expt.RunFig11bc(w, cdn.Popular)
	hits := cfg.Obs.Memo.Hits.Value()
	misses := cfg.Obs.Memo.Misses.Value()
	snap := memoSnapshot{
		Hits:      hits,
		Misses:    misses,
		Evictions: cfg.Obs.Memo.Evictions.Value(),
	}
	if total := hits + misses; total > 0 {
		snap.HitRate = float64(hits) / float64(total)
	}
	return snap, nil
}

// parseInt reads a (possibly empty) regexp submatch; the benchmem columns
// and the -N procs suffix are optional, and an absent group is simply 0.
func parseInt(s string) int64 {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

func parseFloat(s string) float64 {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return f
}

// nextFree returns the first unused BENCH_<n>.json path under dir, so the
// trajectory grows monotonically and never clobbers a committed record.
func nextFree(dir string) (string, error) {
	for n := 0; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path, nil
		} else if err != nil {
			return "", err
		}
	}
}
