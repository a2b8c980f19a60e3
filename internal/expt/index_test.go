package expt

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// indexRow is one row of DESIGN.md §4's per-experiment table, by column.
type indexRow struct {
	paper, driver, restsOn, oracle, section, manifest string
}

var backticked = regexp.MustCompile("`([^`]+)`")

// designIndex parses the rows of DESIGN.md §4 whose first cell is one
// backticked entry name, keyed by that name.
func designIndex(t *testing.T, design string) map[string]indexRow {
	t.Helper()
	start := strings.Index(design, "\n## 4. ")
	if start < 0 {
		t.Fatal("DESIGN.md has no §4")
	}
	sec := design[start+1:]
	if end := strings.Index(sec, "\n## "); end >= 0 {
		sec = sec[:end]
	}
	rows := map[string]indexRow{}
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cells) != 7 {
			t.Errorf("DESIGN.md §4 row has %d cells, want 7: %s", len(cells), line)
			continue
		}
		name := strings.Trim(cells[0], "`")
		if _, dup := rows[name]; dup {
			t.Errorf("DESIGN.md §4 has two rows for %q", name)
		}
		rows[name] = indexRow{cells[1], cells[2], cells[3], cells[4], cells[5], cells[6]}
	}
	return rows
}

// TestDesignIndexesEveryExperiment holds DESIGN.md §4 to expt.Experiments:
// one row per entry and none for anything else, every column filled, the
// EXPERIMENTS.md section it names present, and the files it says the entry
// adds to the output manifest in that manifest — with every figure series
// of the manifest claimed by exactly one row.
func TestDesignIndexesEveryExperiment(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	rows := designIndex(t, read("DESIGN.md"))
	sections := regexp.MustCompile(`(?m)^## (.+)$`).FindAllStringSubmatch(read("EXPERIMENTS.md"), -1)
	manifest := map[string]bool{}
	for _, line := range strings.Split(read("cmd/locind/testdata/manifest.txt"), "\n") {
		if f := strings.Fields(line); len(f) == 2 && len(f[0]) == 64 {
			manifest[f[1]] = true
		}
	}

	known := map[string]bool{}
	claimed := map[string]string{}
	for _, e := range Experiments {
		known[e.Name] = true
		r, ok := rows[e.Name]
		if !ok {
			t.Errorf("expt.Experiments entry %q has no row in DESIGN.md §4", e.Name)
			continue
		}
		for col, v := range map[string]string{"paper": r.paper, "driver": r.driver, "rests on": r.restsOn, "oracle": r.oracle, "EXPERIMENTS.md": r.section, "manifest": r.manifest} {
			if strings.TrimSpace(v) == "" {
				t.Errorf("DESIGN.md §4 row %q has an empty %s column", e.Name, col)
			}
		}
		found := false
		for _, s := range sections {
			found = found || strings.HasPrefix(s[1], r.section)
		}
		if !found {
			t.Errorf("DESIGN.md §4 row %q points at EXPERIMENTS.md section %q, which has no heading", e.Name, r.section)
		}
		for _, m := range backticked.FindAllStringSubmatch(r.manifest, -1) {
			if !manifest[m[1]] {
				t.Errorf("DESIGN.md §4 row %q lists %s, which the output manifest does not hold", e.Name, m[1])
			}
			if prev, dup := claimed[m[1]]; dup {
				t.Errorf("%s is claimed by DESIGN.md §4 rows %q and %q", m[1], prev, e.Name)
			}
			claimed[m[1]] = e.Name
		}
	}
	for name := range rows {
		if !known[name] {
			t.Errorf("DESIGN.md §4 has a row %q that is no expt.Experiments entry", name)
		}
	}
	for f := range manifest {
		if strings.HasPrefix(f, "fig") && claimed[f] == "" {
			t.Errorf("manifest file %s is claimed by no DESIGN.md §4 row", f)
		}
	}
}

// designMaxLines is DESIGN.md's ceiling: the file maps the paper onto the
// code as it stands, and history belongs in CHANGES.md.
const designMaxLines = 900

// TestDesignStaysUnderItsCeiling fails when DESIGN.md grows past
// designMaxLines lines.
func TestDesignStaysUnderItsCeiling(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n > designMaxLines {
		t.Fatalf("DESIGN.md is %d lines, over its ceiling of %d: move history to CHANGES.md", n, designMaxLines)
	}
}
