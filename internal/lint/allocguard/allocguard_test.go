package allocguard

import (
	"errors"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryAnnotatedPackageIsGuarded walks the module and requires every
// package with a //lint:zeroalloc annotation to declare a TestAllocGuard:
// Check can only compare annotations and harness in a package whose tests
// call it.
func TestEveryAnnotatedPackageIsGuarded(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	found := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		syms, err := annotated(path)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil || len(syms) == 0 {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ok, err := declaresAllocGuard(path)
		if err != nil {
			return err
		}
		if !ok {
			t.Errorf("./%s annotates %s with //lint:zeroalloc but declares no TestAllocGuard; add func TestAllocGuard(t *testing.T) { allocguard.Check(t, allocGuardHarness()) } to its allocguard_harness_test.go",
				filepath.ToSlash(rel), strings.Join(syms, ", "))
		}
		found++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatalf("no //lint:zeroalloc annotation under %s; is it the module root?", root)
	}
}

// declaresAllocGuard reports whether the in-package tests of dir declare a
// func TestAllocGuard.
func declaresAllocGuard(dir string) (bool, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return false, err
	}
	fset := token.NewFileSet()
	for _, name := range bp.TestGoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return false, err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "TestAllocGuard" {
				return true, nil
			}
		}
	}
	return false, nil
}
