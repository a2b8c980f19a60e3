package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/manifest.txt from this tree's output")

// TestMain lets the test binary stand in for locind: re-executed with
// LOCIND_TEST_MAIN set it runs main() on its arguments, so the manifest test
// drives the real binary at any GOMAXPROCS.
func TestMain(m *testing.M) {
	if os.Getenv("LOCIND_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"fig99"}, runOpts{quick: true}); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestRunTable1Only(t *testing.T) {
	// table1 needs no world; must complete quickly.
	if err := run([]string{"table1"}, runOpts{seed: 7, quick: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunNetsimOnly(t *testing.T) {
	if err := run([]string{"netsim"}, runOpts{seed: 7, quick: true}); err != nil {
		t.Fatal(err)
	}
}

// -out writes the series of the experiments that ran, beside the trace and
// the RIB dumps, and no other figure's.
func TestRunWorldExperimentsAndExport(t *testing.T) {
	if testing.Short() {
		t.Skip("world build is slow")
	}
	dir := t.TempDir()
	captureRun(t, []string{"fig8", "fig12"}, runOpts{seed: 7, quick: true, out: dir})
	for _, f := range []string{"fig8.csv", "fig12.csv", "trace.csv", "rib_Oregon-1.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("export missing: %v", err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "fig6.csv")); err == nil {
		t.Fatal("fig6.csv written by a run that did not run fig6")
	}
}

// TestGNSClusterSoakDigest pins what the chaos soak converges to at seed 7:
// the binding digest every replica agrees on after the heal, equal to the
// fault-free reference. The manifest does not cover gns-cluster (it is not
// part of all). Attempt and hedge tallies are left out: they count real
// loopback timeouts, which race a busy host's scheduler.
func TestGNSClusterSoakDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("the soak takes seconds")
	}
	out := captureRun(t, []string{"gns-cluster"}, runOpts{seed: 7, quick: true})
	const want = "binding digest 2180ee22da99414e MATCHES the fault-free reference"
	if !strings.Contains(out, want) {
		t.Fatalf("gns-cluster -quick -seed 7 does not say %q:\n%s", want, out)
	}
}

// captureRun runs the experiments in-process with stdout redirected and
// returns the rendered output.
func captureRun(t *testing.T, args []string, o runOpts) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	runErr := run(args, o)
	w.Close()
	out := <-done
	os.Stdout = orig
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}

// The acceptance bar of the parallel engine: output at a fixed seed must be
// byte-identical between -parallel 1 and -parallel N.
func TestRunParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("world build is slow")
	}
	args := []string{"fig8", "fig11b", "ablate"}
	seq := captureRun(t, args, runOpts{seed: 7, quick: true, parallel: 1})
	par := captureRun(t, args, runOpts{seed: 7, quick: true, parallel: 8, obsAddr: "127.0.0.1:0", report: t.TempDir()})
	if seq != par {
		t.Fatalf("output diverged between -parallel 1 and -parallel 8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	if seq == "" {
		t.Fatal("no output captured")
	}
}

// The -report flag must leave both artifacts behind, with the profiled
// phases named after what ran: build-world before the first entry that
// reads the world, timelines before the first that reads the content
// timelines (so fig11a's row is the driver's own cost, and a device-only run
// generates none), then the experiments. Per the byte-identical leg of
// TestRunParallelByteIdentical, which enables -report on one side only,
// profiling must never perturb results.
func TestRunReportArtifacts(t *testing.T) {
	for _, c := range []struct{ args, want []string }{
		{[]string{"table1"}, []string{"table1"}},
		{[]string{"fig11a"}, []string{"build-world", "timelines", "fig11a"}},
		{[]string{"fig8"}, []string{"build-world", "fig8"}},
		{[]string{"fig12", "fig8", "fig11b"}, []string{"build-world", "fig8", "timelines", "fig11b", "fig12"}},
	} {
		dir := t.TempDir()
		_ = captureRun(t, c.args, runOpts{seed: 7, quick: true, report: dir})
		md, err := os.ReadFile(filepath.Join(dir, "RUNREPORT.md"))
		if err != nil {
			t.Fatalf("RUNREPORT.md missing: %v", err)
		}
		for _, ph := range c.want {
			if !strings.Contains(string(md), "| "+ph+" |") {
				t.Fatalf("%v: RUNREPORT.md missing the %s phase:\n%s", c.args, ph, md)
			}
		}
		js, err := os.ReadFile(filepath.Join(dir, "runreport.json"))
		if err != nil {
			t.Fatalf("runreport.json missing: %v", err)
		}
		var doc struct {
			Phases []struct {
				Name string `json:"name"`
			} `json:"phases"`
		}
		if err := json.Unmarshal(js, &doc); err != nil {
			t.Fatalf("runreport.json invalid: %v\n%s", err, js)
		}
		var got []string
		for _, ph := range doc.Phases {
			got = append(got, ph.Name)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("locind -report %v: runreport.json phases %v, want %v", c.args, got, c.want)
		}
	}
}

// evalCounters runs args with -report and sums, over every phase, the
// counter deltas of the evaluation engine: the collectors each driver run
// finished, its result rows and its memo lookups.
func evalCounters(t *testing.T, args []string, out string) map[string]int64 {
	t.Helper()
	dir := t.TempDir()
	captureRun(t, args, runOpts{quick: true, out: out, report: dir})
	js, err := os.ReadFile(filepath.Join(dir, "runreport.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Phases []struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatal(err)
	}
	sum := map[string]int64{}
	for _, ph := range doc.Phases {
		for name, v := range ph.Counters {
			if strings.HasPrefix(name, "locind_expt_") || strings.HasPrefix(name, "locind_memo_") {
				sum[name] += v
			}
		}
	}
	return sum
}

// Each driver runs once per invocation: -out writes the results the
// experiments already computed, so it adds no driver run to any counter.
func TestExportRunsNoDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("world build is slow")
	}
	bare := evalCounters(t, []string{"all"}, "")
	out := evalCounters(t, []string{"all"}, t.TempDir())
	if bare["locind_expt_collectors_done_total"] == 0 {
		t.Fatalf("no collector counted: %v", bare)
	}
	for name, v := range bare {
		if out[name] != v {
			t.Errorf("%s = %d with -out, %d without", name, out[name], v)
		}
	}
	if len(out) != len(bare) {
		t.Errorf("counters with -out %v, without %v", out, bare)
	}
}

const manifestPath = "testdata/manifest.txt"

// TestOutputManifest holds `locind -quick -out DIR all` to the committed
// manifest: the sha256 of its stdout and of each of the 24 files it writes,
// at GOMAXPROCS 1 and 4 and at -parallel 1 and 0 (world synthesis fans out
// over every core and takes no flag). A moved line in the manifest is how a
// change declares that output moved. Regenerate it with
//
//	go test ./cmd/locind -run TestOutputManifest -update
//
// Go may fuse multiply-adds on arm64, ppc64 and s390x but not on amd64 or
// 386, so the manifest is only checked on the GOARCHes its header names
// (CI runs it on both); -update keeps that list.
func TestOutputManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("four quick runs")
	}
	arches, want := readManifest(t)
	if !slices.Contains(arches, runtime.GOARCH) && !*update {
		t.Skipf("manifest holds on %s; floating-point contraction may differ on %s", strings.Join(arches, " "), runtime.GOARCH)
	}
	// The first run is held to the manifest, every later run to the first
	// run, whose files stay on disk so a difference can name its line.
	var first string
	ref, refName := want, manifestPath
	for _, procs := range []string{"1", "4"} {
		for _, parallel := range []string{"1", "0"} {
			name := fmt.Sprintf("GOMAXPROCS=%s -parallel %s", procs, parallel)
			out := filepath.Join(t.TempDir(), "out")
			cmd := exec.Command(os.Args[0], "-quick", "-parallel", parallel, "-out", out, "all")
			cmd.Env = append(os.Environ(), "LOCIND_TEST_MAIN=1", "GOMAXPROCS="+procs)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.String())
			}
			if err := os.WriteFile(filepath.Join(out, "stdout"), stdout, 0o644); err != nil {
				t.Fatal(err)
			}
			sums := digests(t, out)
			if first == "" && *update {
				writeManifest(t, arches, sums)
				ref = sums
			}
			for _, f := range sortedKeys(ref, sums) {
				switch {
				case sums[f] == "":
					t.Errorf("%s: %s missing", name, f)
				case ref[f] == "":
					t.Errorf("%s: %s is not in %s", name, f, refName)
				case sums[f] != ref[f] && first != "":
					t.Errorf("%s: %s differs from %s at %s", name, f, refName, firstDiff(t, filepath.Join(first, f), filepath.Join(out, f)))
				case sums[f] != ref[f]:
					t.Errorf("%s: %s does not match %s:\n  want %s  %s\n  got  %s  %s", name, f, refName, ref[f], f, sums[f], f)
				}
			}
			if first == "" {
				first, ref, refName = out, sums, "the first run ("+name+")"
			}
		}
	}
}

// readManifest reads the GOARCH line and the "sha256  name" lines.
func readManifest(t *testing.T) (arches []string, sums map[string]string) {
	t.Helper()
	f, err := os.Open(manifestPath)
	if err != nil {
		if *update {
			return []string{runtime.GOARCH}, nil
		}
		t.Fatal(err)
	}
	defer f.Close()
	sums = map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#") || line == "":
		case strings.HasPrefix(line, "goarch "):
			arches = strings.Fields(strings.TrimPrefix(line, "goarch "))
		default:
			sum, name, ok := strings.Cut(line, "  ")
			if !ok {
				t.Fatalf("%s: bad line %q", manifestPath, line)
			}
			sums[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return arches, sums
}

// writeManifest writes sums under a header naming arches, plus this GOARCH
// if the list lacks it.
func writeManifest(t *testing.T, arches []string, sums map[string]string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# sha256 of `locind -quick -out DIR all`: stdout, then each file in DIR.\n")
	b.WriteString("# Regenerate: go test ./cmd/locind -run TestOutputManifest -update\n")
	if !slices.Contains(arches, runtime.GOARCH) {
		arches = append(arches, runtime.GOARCH)
	}
	fmt.Fprintf(&b, "goarch %s\n", strings.Join(arches, " "))
	for _, name := range sortedKeys(sums) {
		fmt.Fprintf(&b, "%s  %s\n", sums[name], name)
	}
	if err := os.WriteFile(manifestPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// digests hashes every file in dir.
func digests(t *testing.T, dir string) map[string]string {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]string{}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		sums[f.Name()] = hex.EncodeToString(sum[:])
	}
	return sums
}

// sortedKeys returns the union of the maps' keys: "stdout" first, then by name.
func sortedKeys(ms ...map[string]string) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if (keys[i] == "stdout") != (keys[j] == "stdout") {
			return keys[i] == "stdout"
		}
		return keys[i] < keys[j]
	})
	return keys
}

// firstDiff names the first line at which two files differ.
func firstDiff(t *testing.T, a, b string) string {
	t.Helper()
	x, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	y, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := strings.Split(string(x), "\n"), strings.Split(string(y), "\n")
	for i := 0; i < len(xs) || i < len(ys); i++ {
		var l1, l2 string
		if i < len(xs) {
			l1 = xs[i]
		}
		if i < len(ys) {
			l2 = ys[i]
		}
		if l1 != l2 || i >= len(xs) || i >= len(ys) {
			return fmt.Sprintf("line %d: %q there, %q here", i+1, l1, l2)
		}
	}
	return "same lines"
}
