package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"locind/internal/lint"
)

var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	codeSpan    = regexp.MustCompile("`[^`\n]+`")
	// pkg.Symbol or pkg.Type.Method, exported names only: `lint.json` and
	// `main.go` are file names, not symbols.
	qualified = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
	// testFunc is a name the go tool runs: Test…, Fuzz…, Example… or
	// Benchmark…, optionally package-qualified.
	testFunc = regexp.MustCompile(`\b(?:([a-z][a-z0-9]*)\.)?((?:Test|Fuzz|Example|Benchmark)[A-Z_]\w*)`)
	// citation is a pointer into DESIGN.md by section number, as prose and
	// comments write it: "DESIGN.md §7", "DESIGN §9", "`DESIGN.md` §6".
	citation = regexp.MustCompile("DESIGN(?:\\.md)?`?\\s*§(\\d+)")
	heading  = regexp.MustCompile(`(?m)^## (\d+)\. `)
	bullet   = regexp.MustCompile("(?m)^- `(internal/[a-z/]+)`")
)

// section returns the part of a markdown document from the "## <n>." heading
// to the next second-level heading.
func section(t *testing.T, doc string, n int) string {
	t.Helper()
	start := strings.Index(doc, fmt.Sprintf("\n## %d. ", n))
	if start < 0 {
		t.Fatalf("no section %d", n)
	}
	rest := doc[start+1:]
	if end := strings.Index(rest, "\n## "); end >= 0 {
		rest = rest[:end]
	}
	return rest
}

// repoRoot is the module root, two levels above this package.
var repoRoot = filepath.Join("..", "..")

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repoRoot, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// testDecls maps each package name of the module to the Test, Fuzz, Example
// and Benchmark functions its _test.go files declare (an external test
// package counts as the package it tests). testdata is skipped: fixtures are
// not the module's tests.
func testDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != repoRoot {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && testFunc.MatchString(fd.Name.Name) {
				decls[pkg][fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// unresolved lists the backticked pkg.Symbol and pkg.Type.Method names in
// text whose pkg is a package of this module and whose symbol no package of
// that name declares. byName holds the module's packages as type-checked
// from their non-test files, so a name that lives on only in a _test.go
// oracle does not resolve. A qualified test function (`gns.TestWireGolden`)
// resolves against the package's _test.go files instead.
func unresolved(byName map[string][]*types.Package, tests map[string]map[string]bool, text string) []string {
	var out []string
	for _, span := range codeSpan.FindAllString(fencedBlock.ReplaceAllString(text, ""), -1) {
		for _, m := range qualified.FindAllStringSubmatch(span, -1) {
			pkgs, ours := byName[m[1]]
			if !ours {
				continue
			}
			found := false
			if m[3] == "" && testFunc.MatchString(m[2]) {
				found = tests[m[1]][m[2]]
			}
			for _, pkg := range pkgs {
				obj := pkg.Scope().Lookup(m[2])
				if obj == nil {
					continue
				}
				if m[3] != "" {
					if member, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, m[3]); member == nil {
						continue
					}
				}
				found = true
			}
			if !found {
				out = append(out, m[0])
			}
		}
	}
	return out
}

// TestDocSymbolsResolve keeps the present-tense documentation true: every
// backticked pkg.Symbol in DESIGN.md and README.md must name a declaration
// in that package's non-test files (or, for a test function, its test
// files). History — what a package used to export — belongs in CHANGES.md.
func TestDocSymbolsResolve(t *testing.T) {
	pkgs, err := (&lint.Loader{Dir: repoRoot}).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]*types.Package{}
	for _, p := range pkgs {
		if p.Types != nil && p.Types.Name() != "main" {
			byName[p.Types.Name()] = append(byName[p.Types.Name()], p.Types)
		}
	}
	tests := testDecls(t)

	// The check itself: a missing type, method or test is caught, a method
	// is found through its type, another module's package is not ours to
	// judge.
	if got := unresolved(byName, tests, "`bgp.NoSuchType` and `bgp.RIB.Withdraw` next to `bgp.RIB.DeriveFIB`, `netaddr.Trie[V]`, `net.PacketConn`, `gns.TestWireGolden` and `gns.TestNoSuchThing`"); !slices.Equal(got, []string{"bgp.NoSuchType", "bgp.RIB.Withdraw", "gns.TestNoSuchThing"}) {
		t.Fatalf("self-check: unresolved = %v, want [bgp.NoSuchType bgp.RIB.Withdraw gns.TestNoSuchThing]", got)
	}

	for _, name := range []string{"DESIGN.md", "README.md"} {
		for _, sym := range unresolved(byName, tests, readDoc(t, name)) {
			t.Errorf("%s names `%s`, which no file of that package declares", name, sym)
		}
	}
}

// TestDesignNamesDeclaredTests: every Test, Fuzz, Example or Benchmark
// function DESIGN.md names, in prose or code, is declared by a _test.go file
// of the module — a renamed or deleted test takes its mention with it.
func TestDesignNamesDeclaredTests(t *testing.T) {
	all := map[string]bool{}
	for _, fns := range testDecls(t) {
		for fn := range fns {
			all[fn] = true
		}
	}
	if !all["TestDesignNamesDeclaredTests"] {
		t.Fatal("self-check: this test's own declaration was not found")
	}
	seen := map[string]bool{}
	for _, m := range testFunc.FindAllStringSubmatch(readDoc(t, "DESIGN.md"), -1) {
		if name := m[2]; !all[name] && !seen[name] {
			seen[name] = true
			t.Errorf("DESIGN.md names %s, which no _test.go file declares", name)
		}
	}
}

// TestDesignInventoryCoversInternal: DESIGN.md §3 has one bullet per
// package under internal/, and every bullet names a package that exists.
func TestDesignInventoryCoversInternal(t *testing.T) {
	pkgs := map[string]bool{}
	err := filepath.WalkDir(filepath.Join(repoRoot, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			rel, err := filepath.Rel(repoRoot, filepath.Dir(path))
			if err != nil {
				return err
			}
			pkgs[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pkgs["internal/lint/allocguard"] {
		t.Fatalf("self-check: package walk found %v", pkgs)
	}
	listed := map[string]int{}
	for _, m := range bullet.FindAllStringSubmatch(section(t, readDoc(t, "DESIGN.md"), 3), -1) {
		listed[m[1]]++
	}
	for p := range pkgs {
		if listed[p] != 1 {
			t.Errorf("DESIGN.md §3 has %d bullets for %s, want 1", listed[p], p)
		}
	}
	for p := range listed {
		if !pkgs[p] {
			t.Errorf("DESIGN.md §3 has a bullet for %s, which holds no package", p)
		}
	}
}

// TestDesignCitationsResolve: every "DESIGN.md §N" in the repository points
// at a section DESIGN.md has. CHANGES.md is exempt, being a log whose lines
// cite sections as they were numbered when written, and so is a citation
// quoted whole inside a markdown code span.
func TestDesignCitationsResolve(t *testing.T) {
	have := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(readDoc(t, "DESIGN.md"), -1) {
		have[m[1]] = true
	}
	bad := func(text string, markdown bool) []string {
		var spans [][]int
		if markdown {
			spans = codeSpan.FindAllStringIndex(text, -1)
		}
		var out []string
	next:
		for _, m := range citation.FindAllStringSubmatchIndex(text, -1) {
			for _, s := range spans {
				if s[0] <= m[0] && m[1] <= s[1] {
					continue next
				}
			}
			if n := text[m[2]:m[3]]; !have[n] {
				out = append(out, text[m[0]:m[1]])
			}
		}
		return out
	}
	if got := bad("DESIGN.md §7, DESIGN §"+strconv.Itoa(len(have)+1)+", `DESIGN.md`\n§2", false); len(got) != 1 {
		t.Fatalf("self-check: bad citations %q, want the one past the last section", got)
	}
	if got := bad("a `DESIGN.md §"+strconv.Itoa(len(have)+1)+"` quoted", true); len(got) != 0 {
		t.Fatalf("self-check: a quoted citation was judged: %q", got)
	}

	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != repoRoot && (name == ".git" || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(name)
		if name == "CHANGES.md" || !(ext == ".go" || ext == ".md" || ext == ".yml" || name == "Makefile") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, c := range bad(string(b), ext == ".md") {
			rel, _ := filepath.Rel(repoRoot, path)
			t.Errorf("%s cites %q, which is not a section of DESIGN.md", rel, c)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
