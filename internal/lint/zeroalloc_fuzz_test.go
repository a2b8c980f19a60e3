package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// FuzzDirectiveParsers throws arbitrary comment text at the two directive
// parsers and checks their structural invariants: no panics, positive
// matches only on genuine prefixes, and notes round-tripping through
// whitespace trimming. Placed above the package clause and above a function,
// the text must register only known checks, and only a //lint:package-allow
// reaches package scope.
func FuzzDirectiveParsers(f *testing.F) {
	f.Add("//lint:zeroalloc per event")
	f.Add("//lint:zeroalloc")
	f.Add("//lint:zeroallocate not this directive")
	f.Add("//lint:allow errflow reason")
	f.Add("//lint:file-allow all because")
	f.Add("//lint:package-allow lockflow\ttab separated")
	f.Add("// plain comment mentioning //lint:zeroalloc mid-text")
	f.Add("//lint:")
	f.Add("//lint:allow all every rule waived")
	f.Add("lint:allow errflow x")
	f.Add("//lint:allow\nerrflow x")
	f.Fuzz(func(t *testing.T, text string) {
		note, ok := ParseZeroalloc(text)
		if ok {
			if !strings.HasPrefix(text, "//lint:zeroalloc") {
				t.Fatalf("ParseZeroalloc accepted %q without the directive prefix", text)
			}
			if note != strings.TrimSpace(note) {
				t.Fatalf("ParseZeroalloc(%q) returned untrimmed note %q", text, note)
			}
			// A note must round-trip: re-spelling the directive with the
			// parsed note yields the same note.
			if note2, ok2 := ParseZeroalloc("//lint:zeroalloc " + note); !ok2 || note2 != note {
				t.Fatalf("note %q does not round-trip (got %q, %v)", note, note2, ok2)
			}
		} else if strings.HasPrefix(text, "//lint:zeroalloc ") {
			t.Fatalf("ParseZeroalloc rejected well-formed directive %q", text)
		}

		kind, _, ok := cutDirective(text)
		if ok {
			switch kind {
			case "allow", "file-allow", "package-allow":
			default:
				t.Fatalf("cutDirective(%q) returned unknown kind %q", text, kind)
			}
			if !strings.HasPrefix(text, "//lint:"+kind) {
				t.Fatalf("cutDirective(%q) = %q without matching prefix", text, kind)
			}
		}

		// A fuzzed comment embedded in a real file, on line 1 above the
		// package clause and on line 4 above the only function, must never
		// panic the syntax-level annotation scanner, and any annotation it
		// finds must name that function.
		line := strings.NewReplacer("\n", " ", "\r", " ").Replace(text)
		if !strings.HasPrefix(line, "//") {
			line = "//" + line
		}
		embedded, _, _ := cutDirective(line) // the kind collectAllows sees, not text's
		src := line + "\npackage p\n\n" + line + "\nfunc F() {}\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return // not every mangled comment yields a parseable file
		}
		ai, malformed := collectAllows(&Package{Path: "p", Fset: fset, Files: []*ast.File{file}})
		inSuite := func(check string) bool {
			for _, a := range All() {
				if a.Name == check {
					return true
				}
			}
			return false
		}
		for _, d := range malformed {
			if d.Check != directiveCheck {
				t.Fatalf("malformed directive reported as %q: %v", d.Check, d)
			}
		}
		if len(ai.pkg) > 0 && embedded != "package-allow" {
			t.Fatalf("%q reached package scope without //lint:package-allow: %v", text, ai.pkg)
		}
		for check := range ai.pkg {
			if !inSuite(check) {
				t.Fatalf("%q registered unknown check %q", text, check)
			}
		}
		for check := range ai.files["fuzz.go"] {
			if !inSuite(check) || embedded != "file-allow" {
				t.Fatalf("%q registered file suppression %q", text, check)
			}
		}
		for key := range ai.lines {
			if !inSuite(key.check) || embedded != "allow" || key.line != 1 && key.line != 2 && key.line != 4 && key.line != 5 {
				t.Fatalf("%q registered line suppression %+v", text, key)
			}
		}
		for _, af := range ZeroallocFuncs(file) {
			if af.Symbol != "F" {
				t.Fatalf("annotation resolved to symbol %q, want F", af.Symbol)
			}
		}
	})
}
