package lint_test

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
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

// unresolved lists the backticked pkg.Symbol and pkg.Type.Method names in
// text whose pkg is a package of this module and whose symbol no package of
// that name declares. byName holds the module's packages as type-checked
// from their non-test files, so a name that lives on only in a _test.go
// oracle does not resolve.
func unresolved(byName map[string][]*types.Package, text string) []string {
	var out []string
	for _, span := range codeSpan.FindAllString(fencedBlock.ReplaceAllString(text, ""), -1) {
		for _, m := range qualified.FindAllStringSubmatch(span, -1) {
			pkgs, ours := byName[m[1]]
			if !ours {
				continue
			}
			found := false
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
// backticked pkg.Symbol in DESIGN.md §3 (system inventory) and §11 (layout)
// and in README.md must name a declaration in that package's non-test files.
// History — what a package used to export — belongs in CHANGES.md.
func TestDocSymbolsResolve(t *testing.T) {
	root := filepath.Join("..", "..")
	pkgs, err := (&lint.Loader{Dir: root}).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]*types.Package{}
	for _, p := range pkgs {
		if p.Types != nil && p.Types.Name() != "main" {
			byName[p.Types.Name()] = append(byName[p.Types.Name()], p.Types)
		}
	}

	// The check itself: a missing type or method is caught, a method is found
	// through its type, another module's package is not ours to judge.
	if got := unresolved(byName, "`bgp.NoSuchType` and `bgp.RIB.Withdraw` next to `bgp.RIB.DeriveFIB`, `netaddr.Trie[V]` and `net.PacketConn`"); len(got) != 2 || got[0] != "bgp.NoSuchType" || got[1] != "bgp.RIB.Withdraw" {
		t.Fatalf("self-check: unresolved = %v, want [bgp.NoSuchType bgp.RIB.Withdraw]", got)
	}

	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	design := read("DESIGN.md")
	for where, text := range map[string]string{
		"DESIGN.md §3":  section(t, design, 3),
		"DESIGN.md §11": section(t, design, 11),
		"README.md":     read("README.md"),
	} {
		for _, name := range unresolved(byName, text) {
			t.Errorf("%s names `%s`, which no non-test file of that package declares", where, name)
		}
	}
}
