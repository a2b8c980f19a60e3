// Package examples holds no code of its own: each directory below it is one
// runnable program, and this test holds all of them to their committed
// output.
package examples

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.sha256 from this tree's output")

const manifestPath = "testdata/stdout.sha256"

// TestExamplesStdout runs every program under examples/ to the end and
// holds its stdout to the sha256 committed in testdata (stderr is progress
// only and is not compared). A moved line in the manifest is how a change
// declares that an example's output moved. Regenerate it with
//
//	go test ./examples -update
//
// Go may fuse multiply-adds on arm64, ppc64 and s390x but not on amd64, so
// the manifest is only checked on the GOARCH it was made on.
func TestExamplesStdout(t *testing.T) {
	arch, want := readManifest(t)
	if arch != runtime.GOARCH && !*update {
		t.Skipf("manifest made on %s; floating-point contraction may differ on %s", arch, runtime.GOARCH)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "testdata" {
			continue
		}
		var stderr bytes.Buffer
		cmd := exec.Command("go", "run", "./"+e.Name()) // go test puts its own go first on PATH
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("go run ./examples/%s: %v\n%s", e.Name(), err, stderr.String())
		}
		sum := sha256.Sum256(stdout)
		got[e.Name()] = hex.EncodeToString(sum[:])
	}
	if *update {
		writeManifest(t, got)
		return
	}
	for _, name := range sortedKeys(want, got) {
		if got[name] != want[name] {
			t.Errorf("examples/%s stdout: sha256 %q, %s says %q", name, got[name], manifestPath, want[name])
		}
	}
}

// readManifest reads the "goarch" line and the "sha256  name" lines.
func readManifest(t *testing.T) (arch string, sums map[string]string) {
	t.Helper()
	b, err := os.ReadFile(manifestPath)
	if err != nil && !*update {
		t.Fatal(err)
	}
	sums = map[string]string{}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || strings.HasPrefix(f[0], "#"):
		case len(f) != 2:
			t.Fatalf("%s: bad line %q", manifestPath, line)
		case f[0] == "goarch":
			arch = f[1]
		default:
			sums[f[1]] = f[0]
		}
	}
	return arch, sums
}

func writeManifest(t *testing.T, sums map[string]string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# sha256 of each example's stdout.\n")
	b.WriteString("# Regenerate: go test ./examples -update\n")
	fmt.Fprintf(&b, "goarch %s\n", runtime.GOARCH)
	for _, name := range sortedKeys(sums) {
		fmt.Fprintf(&b, "%s  %s\n", sums[name], name)
	}
	if err := os.WriteFile(manifestPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// sortedKeys returns the union of the maps' keys, sorted.
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
	sort.Strings(keys)
	return keys
}
