package lint_test

// The fixture harness for the analyzer tests, in the spirit of
// golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under <testdata>/src/<importpath>/ and are ordinary Go
// packages. Imports resolve against sibling fixtures first — which lets a
// fixture stand in for a watched path like locind/internal/stats — and fall
// back to the real standard library, loaded through lint.Loader so one
// type-checked stdlib is shared by every test in the binary. A comment of
// the form
//
//	code() // want "first regex" `second regex`
//
// asserts that each listed pattern matches exactly one diagnostic reported
// on that line. Diagnostics with no matching want, and wants with no
// matching diagnostic, fail the test — so a fixture line with no want
// comment is also an assertion: the analyzer must stay quiet there.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"locind/internal/lint"
)

// One file set and loader per test binary: fixtures and the standard
// library they import must agree on token positions, and type-checking the
// stdlib is expensive enough to do only once.
var (
	fset   = token.NewFileSet()
	loader = &lint.Loader{Fset: fset}

	stdlibMu sync.Mutex
	stdlib   = map[string]*types.Package{}
)

// runFixtures applies analyzer a to the fixture packages named by importPaths
// (rooted at <testdata>/src) and reports any divergence from their // want
// comments through t. Fixture packages that fail to type-check fail the
// test immediately: a fixture that does not compile asserts nothing.
func runFixtures(t *testing.T, testdata string, a *lint.Analyzer, importPaths ...string) {
	t.Helper()
	fl := &fixtureLoader{
		srcRoot: filepath.Join(testdata, "src"),
		pkgs:    map[string]*lint.Package{},
		loading: map[string]bool{},
	}
	var roots []*lint.Package
	for _, path := range importPaths {
		pkg, err := fl.load(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture %s does not type-check: %v", path, terr)
		}
		if pkg.Types == nil {
			t.Fatalf("fixture %s produced no type information", path)
		}
		roots = append(roots, pkg)
	}
	if t.Failed() {
		t.FailNow()
	}

	rep, err := lint.Run(roots, []*lint.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	wants := collectWants(t, roots)
	for _, d := range rep.Diags {
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.pattern)
		}
	}
}

// A fixtureLoader parses and type-checks fixture packages on demand,
// memoized per runFixtures call.
type fixtureLoader struct {
	srcRoot string
	pkgs    map[string]*lint.Package
	loading map[string]bool
}

func (fl *fixtureLoader) load(path string) (*lint.Package, error) {
	if pkg, ok := fl.pkgs[path]; ok {
		return pkg, nil
	}
	if fl.loading[path] {
		return nil, fmt.Errorf("fixture harness: fixture import cycle through %q", path)
	}
	fl.loading[path] = true
	defer delete(fl.loading, path)

	dir := filepath.Join(fl.srcRoot, filepath.FromSlash(path))
	names, err := fixtureFiles(dir)
	if err != nil {
		return nil, err
	}
	pkg := &lint.Package{Path: path, Dir: dir, Fset: fset}
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := &types.Config{
		Importer: importerFunc(fl.resolve),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := cfg.Check(path, fset, pkg.Files, info) // type errors land in TypeErrors and fail the test
	pkg.Types = tpkg
	pkg.Info = info
	fl.pkgs[path] = pkg
	return pkg, nil
}

// resolve maps an import inside a fixture to another fixture when one
// exists at that path, and to the real standard library otherwise.
func (fl *fixtureLoader) resolve(path string) (*types.Package, error) {
	dir := filepath.Join(fl.srcRoot, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := fl.load(path)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("fixture harness: fixture %q has no type information", path)
		}
		return pkg.Types, nil
	}
	return stdlibPackage(path)
}

func stdlibPackage(path string) (*types.Package, error) {
	stdlibMu.Lock()
	defer stdlibMu.Unlock()
	if tp, ok := stdlib[path]; ok {
		return tp, nil
	}
	pkgs, err := loader.Load(path)
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		if p.Path == path && p.Types != nil {
			stdlib[path] = p.Types
			return p.Types, nil
		}
	}
	return nil, fmt.Errorf("fixture harness: %q missing from load result", path)
}

func fixtureFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string // ReadDir returns entries sorted by name
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("fixture harness: no Go files in %s", dir)
	}
	return names, nil
}

// A want is one expected-diagnostic pattern anchored to a fixture line.
type want struct {
	file    string
	line    int
	pattern string
	re      *regexp.Regexp
	matched bool
}

// wantToken matches one double-quoted (with escapes) or backquoted pattern.
var wantToken = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func collectWants(t *testing.T, pkgs []*lint.Package) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					// The marker may trail other comment text, so a fixture
					// can assert on a diagnostic aimed at the comment itself
					// (e.g. a dangling //lint:zeroalloc directive).
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					rest := c.Text[idx+len("// want "):]
					pos := fset.Position(c.Pos())
					toks := wantToken.FindAllString(rest, -1)
					if len(toks) == 0 {
						t.Errorf("%s: // want comment with no quoted patterns", pos)
					}
					for _, tok := range toks {
						pat, err := strconv.Unquote(tok)
						if err != nil {
							t.Errorf("%s: unquoting want pattern %s: %v", pos, tok, err)
							continue
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Errorf("%s: compiling want pattern %q: %v", pos, pat, err)
							continue
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, pattern: pat, re: re})
					}
				}
			}
		}
	}
	return wants
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
