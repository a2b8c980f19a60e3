// Package allocguard enforces //lint:zeroalloc (internal/lint/zeroalloc.go).
// An annotated package's allocguard_harness_test.go declares
//
//	func TestAllocGuard(t *testing.T) { allocguard.Check(t, allocGuardHarness()) }
//
// with a hand-written allocGuardHarness mapping each annotated symbol to its
// measured steady-state allocation count (absolute for warmed hit paths,
// differential — large workload minus small — for per-event paths whose
// warm-up is legitimate). Check reads the annotations from the package's own
// source on every run, so there is no symbol list to go stale.
//
//lint:package-allow reach a test harness: the TestAllocGuard of each annotated package is its only importer, and no binary should link it
package allocguard

import (
	"go/build"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"testing"

	"locind/internal/lint"
)

// Check pins every //lint:zeroalloc function of the package under test at
// zero measured steady-state allocations, one subtest per symbol, and fails
// when the annotation set and harness disagree in either direction. It
// reads the package from the working directory, which go test sets to it.
func Check(t *testing.T, harness map[string]func(*testing.T) float64) {
	t.Helper()
	syms, err := annotated(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range syms {
		measure, ok := harness[sym]
		if !ok {
			t.Errorf("//lint:zeroalloc %s has no measurement; add an allocGuardHarness entry in allocguard_harness_test.go", sym)
			continue
		}
		t.Run(sym, func(t *testing.T) {
			if got := measure(t); got != 0 {
				t.Errorf("%s allocates %.1f times per run in steady state; //lint:zeroalloc pins 0", sym, got)
			}
		})
	}
	for sym := range harness {
		if !slices.Contains(syms, sym) {
			t.Errorf("allocGuardHarness measures %q, which has no //lint:zeroalloc annotation; annotate it or drop the entry", sym)
		}
	}
}

// annotated returns the sorted //lint:zeroalloc symbols of the package in
// dir, read from the non-test files the go tool would build. Only syntax is
// needed: files are parsed with comments, never type-checked.
func annotated(dir string) ([]string, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var syms []string
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, af := range lint.ZeroallocFuncs(f) {
			syms = append(syms, af.Symbol)
		}
	}
	slices.Sort(syms)
	return syms, nil
}
