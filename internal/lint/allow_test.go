package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseAllowPkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: "fix", Fset: fset, Files: []*ast.File{f}}
}

func TestAllowScopes(t *testing.T) {
	pkg := parseAllowPkg(t, `// Package fix exercises every directive scope.
//
//lint:package-allow lockflow the whole package
//lint:allow ctxflow above the package clause this line and the next, no further
package fix

//lint:file-allow errflow this file writes nowhere durable

func f() {
	//lint:allow determinism directive line and the next are covered
	_ = 1
	_ = 2
}
`)
	ai, malformed := collectAllows(pkg)
	if len(malformed) != 0 {
		t.Fatalf("malformed = %v, want none", malformed)
	}
	at := func(line int, check string) bool {
		return ai.suppressed(Diagnostic{
			Pos:   token.Position{Filename: "fix.go", Line: line},
			Check: check,
		})
	}
	// Package scope: lockflow anywhere.
	if !at(1, "lockflow") || !at(12, "lockflow") {
		t.Error("package-allow did not suppress lockflow")
	}
	// A //lint:allow above the package clause is line scope like any other:
	// its line (4) and the next (5), not line 6.
	if !at(4, "ctxflow") || !at(5, "ctxflow") {
		t.Error("allow above the package clause did not cover its own line and the next")
	}
	if at(6, "ctxflow") || at(12, "ctxflow") {
		t.Error("allow above the package clause was promoted past the following line")
	}
	// File scope: errflow anywhere in fix.go.
	if !at(2, "errflow") || !at(11, "errflow") {
		t.Error("file-allow did not suppress errflow")
	}
	// Line scope: the directive's line (10) and the next (11), not line 12.
	if !at(10, "determinism") || !at(11, "determinism") {
		t.Error("line allow did not cover its own line and the next")
	}
	if at(12, "determinism") {
		t.Error("line allow leaked past the following line")
	}
	// Unlisted checks stay live.
	if at(11, "reach") {
		t.Error("suppression applied to a check no directive names")
	}
	// lintdirective findings can never be suppressed.
	if ai.suppressed(Diagnostic{Pos: token.Position{Filename: "fix.go", Line: 7}, Check: directiveCheck}) {
		t.Error("lintdirective finding was suppressible")
	}
}

func TestMalformedDirectives(t *testing.T) {
	pkg := parseAllowPkg(t, `package fix

//lint:allow errflow
//lint:file-allow nosuchcheck because reasons
//lint:allow
func f() {}
`)
	ai, malformed := collectAllows(pkg)
	wantFragments := []string{
		"needs a reason",
		`unknown check "nosuchcheck"`,
		`unknown check ""`,
	}
	if len(malformed) != len(wantFragments) {
		t.Fatalf("got %d malformed diagnostics %v, want %d", len(malformed), malformed, len(wantFragments))
	}
	for i, frag := range wantFragments {
		if malformed[i].Check != directiveCheck {
			t.Errorf("malformed[%d].Check = %q, want %q", i, malformed[i].Check, directiveCheck)
		}
		if !strings.Contains(malformed[i].Message, frag) {
			t.Errorf("malformed[%d] = %q, want it to mention %q", i, malformed[i].Message, frag)
		}
	}
	// A malformed directive must not register any suppression.
	if ai.suppressed(Diagnostic{Pos: token.Position{Filename: "fix.go", Line: 4}, Check: "errflow"}) {
		t.Error("reason-less directive still suppressed errflow")
	}
}

// TestFloatingZeroalloc pins the one property the deleted allocflow analyzer
// carried that AllocsPerRun cannot measure: a //lint:zeroalloc that is not a
// function's doc comment reaches neither ZeroallocFuncs nor TestAllocGuard,
// so it is reported; one that is a doc comment is not. A //lint:allow naming
// a deleted analyzer is an unknown check like any other.
func TestFloatingZeroalloc(t *testing.T) {
	pkg := parseAllowPkg(t, `package fix

// Process replays events.
//
//lint:zeroalloc per event
func Process() {}

//lint:zeroalloc dangling: attached to a var, not a function
var sink int

func g() {
	//lint:zeroalloc inside a body
	_ = sink //lint:allow allocflow the analyzer is gone
}
`)
	_, malformed := collectAllows(pkg)
	want := []struct {
		line int
		frag string
	}{
		{8, "annotates nothing"},
		{12, "annotates nothing"},
		{13, `unknown check "allocflow"`},
	}
	if len(malformed) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d", len(malformed), malformed, len(want))
	}
	for i, w := range want {
		d := malformed[i]
		if d.Check != directiveCheck || d.Pos.Line != w.line || !strings.Contains(d.Message, w.frag) {
			t.Errorf("malformed[%d] = %v, want %s at line %d mentioning %q", i, d, directiveCheck, w.line, w.frag)
		}
	}
	if got := ZeroallocFuncs(pkg.Files[0]); len(got) != 1 || got[0].Symbol != "Process" {
		t.Errorf("ZeroallocFuncs = %v, want exactly Process", got)
	}
}
