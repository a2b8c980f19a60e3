package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSnap(t *testing.T, dir, name string, s snapshot) string {
	t.Helper()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func snapWith(benches []benchResult, hitRate float64) snapshot {
	return snapshot{
		GoVersion:  "go1.x",
		Benchmarks: benches,
		Memo:       memoSnapshot{HitRate: hitRate},
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeSnap(t, dir, "old.json", snapWith([]benchResult{
		{Name: "BenchmarkStable", NsPerOp: 1000},
		{Name: "BenchmarkSlower", NsPerOp: 1000},
		{Name: "BenchmarkFaster", NsPerOp: 1000},
		{Name: "BenchmarkGone", NsPerOp: 50},
	}, 0.9))
	newPath := writeSnap(t, dir, "new.json", snapWith([]benchResult{
		{Name: "BenchmarkStable", NsPerOp: 1050},  // +5%: inside the gate
		{Name: "BenchmarkSlower", NsPerOp: 1300},  // +30%: regression
		{Name: "BenchmarkFaster", NsPerOp: 700},   // improvement
		{Name: "BenchmarkFresh", NsPerOp: 123456}, // new: never a regression
	}, 0.9))

	var b strings.Builder
	n, err := compare(&b, oldPath, newPath, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("regressions = %d, want 1:\n%s", n, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"BenchmarkSlower",
		"+30.0%  <-- REGRESSION",
		"::warning title=bench regression::BenchmarkSlower ns/op +30.0%",
		"BenchmarkFresh",
		"BenchmarkGone",
		"1 regression(s) beyond the gate",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "BenchmarkStable") && strings.Contains(line, "REGRESSION") {
			t.Fatalf("+5%% must not regress at a 10%% threshold:\n%s", out)
		}
	}
}

func TestCompareCleanRun(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeSnap(t, dir, "old.json", snapWith([]benchResult{{Name: "BenchmarkX", NsPerOp: 100}}, 0.8))
	newPath := writeSnap(t, dir, "new.json", snapWith([]benchResult{{Name: "BenchmarkX", NsPerOp: 104}}, 0.8))
	var b strings.Builder
	n, err := compare(&b, oldPath, newPath, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || !strings.Contains(b.String(), "no regressions") {
		t.Fatalf("clean compare reported %d regressions:\n%s", n, b.String())
	}
	if strings.Contains(b.String(), "::warning") {
		t.Fatalf("annotations must be opt-in:\n%s", b.String())
	}
}

// A lower memo hit rate is printed but is not a regression: the rate is a
// property of how the evaluator is built, not of what it delivers.
func TestCompareMemoHitRateDrop(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeSnap(t, dir, "old.json", snapWith([]benchResult{{Name: "BenchmarkX", NsPerOp: 100}}, 0.90))
	newPath := writeSnap(t, dir, "new.json", snapWith([]benchResult{{Name: "BenchmarkX", NsPerOp: 100}}, 0.80))
	var b strings.Builder
	n, err := compare(&b, oldPath, newPath, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || !strings.Contains(b.String(), "memo hit rate: 0.900 -> 0.800 (reported, not gated)\nno regressions") {
		t.Fatalf("memo drop must be reported and not gated (n=%d):\n%s", n, b.String())
	}
}

func TestDiffZeroBaseline(t *testing.T) {
	c := diff(
		&snapshot{Benchmarks: []benchResult{{Name: "BenchmarkZ", NsPerOp: 0}}},
		&snapshot{Benchmarks: []benchResult{{Name: "BenchmarkZ", NsPerOp: 5}}},
		10,
	)
	if len(c.rows) != 1 || !math.IsInf(c.rows[0].deltaPct, 1) || !c.rows[0].regression {
		t.Fatalf("zero baseline must flag as infinite growth: %+v", c.rows)
	}
}

func TestCompareAgainstCommittedSnapshot(t *testing.T) {
	// The committed trajectory must stay loadable by the gate: compare the
	// seed snapshot against itself and expect a clean report.
	path := filepath.Join("..", "..", "BENCH_0.json")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("no committed snapshot: %v", err)
	}
	var b strings.Builder
	n, err := compare(&b, path, path, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("self-compare found %d regressions:\n%s", n, b.String())
	}
}
