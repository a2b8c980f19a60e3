package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// comparison is the outcome of diffing two snapshots, separated so the
// regression gate can render and gate on it independently.
type comparison struct {
	rows    []compareRow
	added   []string
	removed []string
}

type compareRow struct {
	name       string
	oldNs      float64
	newNs      float64
	deltaPct   float64
	regression bool
}

// compare diffs two BENCH_<n>.json snapshots and renders a report to w.
// A benchmark regresses when its ns/op grew by more than thresholdPct
// percent. The memo hit rate is printed and never gated: it describes a
// mechanism, and a change that takes lookups away from the memo lowers it
// while making every outcome better. With annotate set, each regression
// also emits a GitHub Actions ::warning line. It returns the number of
// regressions.
func compare(out io.Writer, oldPath, newPath string, thresholdPct float64, annotate bool) (int, error) {
	oldSnap, err := loadSnapshot(oldPath)
	if err != nil {
		return 0, err
	}
	newSnap, err := loadSnapshot(newPath)
	if err != nil {
		return 0, err
	}
	c := diff(oldSnap, newSnap, thresholdPct)

	// Render into a builder (whose writes cannot fail) and flush once, so
	// a broken pipe surfaces as one checked error instead of twelve.
	w := &strings.Builder{}
	fmt.Fprintf(w, "comparing %s -> %s (threshold %+.1f%% ns/op)\n\n", oldPath, newPath, thresholdPct)
	fmt.Fprintf(w, "%-40s %15s %15s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	regressions := 0
	for _, r := range c.rows {
		mark := ""
		if r.regression {
			mark = "  <-- REGRESSION"
			regressions++
			if annotate {
				fmt.Fprintf(w, "::warning title=bench regression::%s ns/op %+.1f%% (%.0f -> %.0f)\n",
					r.name, r.deltaPct, r.oldNs, r.newNs)
			}
		}
		fmt.Fprintf(w, "%-40s %15.0f %15.0f %+8.1f%%%s\n", r.name, r.oldNs, r.newNs, r.deltaPct, mark)
	}
	for _, n := range c.added {
		fmt.Fprintf(w, "%-40s %15s %15s %9s\n", n, "-", "new", "")
	}
	for _, n := range c.removed {
		fmt.Fprintf(w, "%-40s %15s %15s %9s\n", n, "gone", "-", "")
	}
	fmt.Fprintf(w, "\nmemo hit rate: %.3f -> %.3f (reported, not gated)\n", oldSnap.Memo.HitRate, newSnap.Memo.HitRate)
	if regressions > 0 {
		fmt.Fprintf(w, "%d regression(s) beyond the gate\n", regressions)
	} else {
		fmt.Fprintln(w, "no regressions")
	}
	if _, err := io.WriteString(out, w.String()); err != nil {
		return regressions, err
	}
	return regressions, nil
}

// diff computes the per-benchmark deltas, keyed by benchmark name (names
// are unique within one run of the repo's bench set).
func diff(oldSnap, newSnap *snapshot, thresholdPct float64) comparison {
	oldBy := map[string]benchResult{}
	for _, b := range oldSnap.Benchmarks {
		oldBy[b.Name] = b
	}
	newBy := map[string]benchResult{}
	for _, b := range newSnap.Benchmarks {
		newBy[b.Name] = b
	}
	var c comparison
	for name, ob := range oldBy {
		nb, ok := newBy[name]
		if !ok {
			c.removed = append(c.removed, name)
			continue
		}
		row := compareRow{name: name, oldNs: ob.NsPerOp, newNs: nb.NsPerOp}
		if ob.NsPerOp > 0 {
			row.deltaPct = (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp * 100
		} else if nb.NsPerOp > 0 {
			row.deltaPct = math.Inf(1)
		}
		row.regression = row.deltaPct > thresholdPct
		c.rows = append(c.rows, row)
	}
	for name := range newBy {
		if _, ok := oldBy[name]; !ok {
			c.added = append(c.added, name)
		}
	}
	sort.Slice(c.rows, func(i, j int) bool { return c.rows[i].name < c.rows[j].name })
	sort.Strings(c.added)
	sort.Strings(c.removed)
	return c
}

func loadSnapshot(path string) (*snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in snapshot", path)
	}
	return &s, nil
}
