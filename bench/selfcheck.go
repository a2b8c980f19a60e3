package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// contract is BENCHMARK.json, as far as the bench itself reads it: the
// self-check takes directions and bounds from there, so they are written
// down once.
type contract struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []contractNamed  `json:"workloads"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readContract(path string) (contract, error) {
	var c contract
	buf, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// runChild runs one end-to-end run of one workload in a fresh process of
// this same binary and parses the last line of its output. The demoted
// timing metrics are not on that line; they are read from the result file
// the child wrote and returned with the rest.
func runChild(ctx context.Context, workload string, seed int64, seconds float64) (driverLine, error) {
	var line driverLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return line, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !line.Correct || line.Failed > 0 {
		return line, fmt.Errorf("%s seed %d: incorrect run (%d of %d ops failed)", workload, seed, line.Failed, line.Attempted)
	}
	buf, err := os.ReadFile(filepath.Join(outDir, "result-"+workload+".json"))
	if err != nil {
		return line, err
	}
	var res result
	if err := json.Unmarshal(buf, &res); err != nil {
		return line, fmt.Errorf("%s seed %d: result file: %w", workload, seed, err)
	}
	for _, d := range demoted {
		line.Metrics[d.Name] = res.Info[d.Name]
	}
	return line, nil
}

// worseBy is how much worse b is than a, as a share of a, for a metric
// whose better direction is given; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// The A/A record makes selfcheckRuns runs per set and workload; run i of
// either set takes seed + i·selfcheckSeedStep, far enough apart that no two
// runs share a world.
const (
	selfcheckRuns     = 10
	selfcheckSeedStep = 1000
)

// runSelfcheck is the A/A record: two sets of runs of every workload on the
// same binary, interleaved (A B, B A, A B …, the set that goes first
// alternating) so that slow drift of the machine lands on both. Per workload
// × metric it prints both medians, their relative difference, both spreads
// (the interquartile range as a share of the median, as the driver takes it)
// and the bound, and it fails if a difference exceeds half its bound or a
// spread its bound. setup_s is held to the driver's rule instead, which is
// one-sided and checks no spread: set B's median may not be worse than set
// A's by more than the bound. The demoted timing metrics are listed after
// the gated ones, without a verdict, so that the record keeps showing what
// they would have to repeat to.
func runSelfcheck(ctx context.Context, seed int64, seconds float64) error {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		return err
	}
	// Every run's result line is also appended to bench/out/selfcheck.jsonl
	// as it arrives, so that a run that dies halfway leaves its evidence.
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	log, err := os.Create(filepath.Join(outDir, "selfcheck.jsonl"))
	if err != nil {
		return err
	}
	defer log.Close()
	// values[set][workload][metric] = one value per run
	values := [2]map[string]map[string][]float64{{}, {}}
	for i := 0; i < selfcheckRuns; i++ {
		runSeed := seed + int64(i)*selfcheckSeedStep
		for _, set := range [2]int{i % 2, 1 - i%2} {
			for _, w := range workloads {
				line, err := runChild(ctx, w.name, runSeed, seconds)
				if err != nil {
					return err
				}
				rec, err := json.Marshal(struct {
					Run      int    `json:"run"`
					Set      string `json:"set"`
					Seed     int64  `json:"seed"`
					Workload string `json:"workload"`
					driverLine
				}{i, string('A' + rune(set)), runSeed, w.name, line})
				if err != nil {
					return err
				}
				if _, err := log.Write(append(rec, '\n')); err != nil {
					return err
				}
				if values[set][w.name] == nil {
					values[set][w.name] = map[string][]float64{}
				}
				for _, name := range sortedKeys(line.Metrics) {
					values[set][w.name][name] = append(values[set][w.name][name], line.Metrics[name].Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d set %c %s done\n", i+1, selfcheckRuns, 'A'+rune(set), w.name)
			}
		}
	}

	fmt.Printf("# A/A noise record\n\n")
	fmt.Printf("Two interleaved sets (A B, B A, A B …) of %d runs per workload on one binary, each run its workload's fixed op count under a %g s wall ceiling, seeds %d, %d … %d.\n\n",
		selfcheckRuns, seconds, seed, seed+selfcheckSeedStep, seed+(selfcheckRuns-1)*selfcheckSeedStep)
	fmt.Printf("`%s`\n\n", newProvenance(seed, seconds, false))
	fmt.Println("`diff` is how much worse set B's median is than set A's; `spread` is the interquartile range over the median, as the driver computes it. A row fails when |diff| exceeds half the bound or a spread exceeds the bound. setup_s is held to the driver's rule instead: B not worse than A by more than the bound, spread not checked. The last three rows of each table are the demoted timing metrics: measured, not gated.")
	var failures []string
	for _, w := range workloads {
		fmt.Printf("\n## %s\n\n", w.name)
		fmt.Println("| metric | unit | median A | median B | diff | spread A | spread B | bound | verdict |")
		fmt.Println("|---|---|---:|---:|---:|---:|---:|---:|---|")
		for _, em := range append(append([]contractMetric(nil), c.EndToEnd...), demoted...) {
			a, b := values[0][w.name][em.Name], values[1][w.name][em.Name]
			if len(a) != selfcheckRuns || len(b) != selfcheckRuns {
				return fmt.Errorf("%s: metric %s reported in %d and %d of %d runs", w.name, em.Name, len(a), len(b), selfcheckRuns)
			}
			ma, mb := median(a), median(b)
			diff := worseBy(ma, mb, em.Better)
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case em.Bound == 0:
				verdict = "not gated"
			case em.Name == mSetup:
				if diff > em.Bound {
					verdict = "FAIL diff"
				}
			case math.Abs(diff) > em.Bound/2:
				verdict = "FAIL diff"
			case sa > em.Bound || sb > em.Bound:
				verdict = "FAIL spread"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				failures = append(failures, w.name+"/"+em.Name)
			}
			bound := "—"
			if em.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*em.Bound)
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %s | %s |\n",
				em.Name, em.Unit, ma, mb, 100*diff, 100*sa, 100*sb, bound, verdict)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("selfcheck: outside the bounds: %s", strings.Join(failures, ", "))
	}
	return nil
}
