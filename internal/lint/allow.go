package lint

import (
	"fmt"
	"go/ast"
	"slices"
	"strings"
)

// Suppression directives.
//
//	//lint:allow <check> <reason>          suppress <check> on this line and the next
//	//lint:file-allow <check> <reason>     suppress <check> in this file
//	//lint:package-allow <check> <reason>  suppress <check> in this package
//
// <check> is the name of one analyzer in All(). The reason is mandatory: a
// directive with no justification is itself reported as a finding (check
// "lintdirective"), so suppressions cannot accumulate without explanation.

const directiveCheck = "lintdirective"

func knownCheck(name string) bool {
	return slices.ContainsFunc(All(), func(a *Analyzer) bool { return a.Name == name })
}

type lineKey struct {
	file  string
	line  int
	check string
}

type allowIndex struct {
	pkg   map[string]bool            // check -> package-wide allow
	files map[string]map[string]bool // filename -> check set
	lines map[lineKey]bool
	dirs  []lineKey // each line-scope directive, where it stands: reach reports the stale ones
}

func (ai *allowIndex) suppressed(d Diagnostic) bool {
	if d.Check == directiveCheck {
		return false
	}
	return ai.pkg[d.Check] || ai.files[d.Pos.Filename][d.Check] ||
		ai.lines[lineKey{d.Pos.Filename, d.Pos.Line, d.Check}]
}

// collectAllows scans every comment in the package for lint directives and
// returns the suppression index plus diagnostics for malformed directives.
func collectAllows(pkg *Package) (*allowIndex, []Diagnostic) {
	ai := &allowIndex{
		pkg:   map[string]bool{},
		files: map[string]map[string]bool{},
		lines: map[lineKey]bool{},
	}
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		filename := pkg.Fset.Position(f.Package).Filename
		annotating := map[*ast.CommentGroup]bool{} // doc comments ZeroallocFuncs reads an annotation from
		for _, af := range ZeroallocFuncs(f) {
			annotating[af.Decl.Doc] = true
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				kind, rest, ok := cutDirective(c.Text)
				if !ok {
					// A //lint: comment that is neither an allow form nor a
					// zeroalloc annotation is a typo'd directive, and a
					// zeroalloc outside a function's doc comment is one
					// ZeroallocFuncs never sees: report both, or they would
					// silently annotate nothing.
					_, zok := ParseZeroalloc(c.Text)
					switch {
					case zok && !annotating[cg]:
						malformed = append(malformed, Diagnostic{
							Pos: pkg.Fset.Position(c.Pos()), Check: directiveCheck,
							Message: "//lint:zeroalloc is not the doc comment of a function declaration; it annotates nothing",
						})
					case !zok && strings.HasPrefix(c.Text, "//lint:"):
						malformed = append(malformed, Diagnostic{
							Pos: pkg.Fset.Position(c.Pos()), Check: directiveCheck,
							Message: fmt.Sprintf("unknown //lint: directive %q", firstField(c.Text)),
						})
					}
					continue
				}
				cpos := pkg.Fset.Position(c.Pos())
				check, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				reason = strings.TrimSpace(reason)
				switch {
				case !knownCheck(check):
					malformed = append(malformed, Diagnostic{Pos: cpos, Check: directiveCheck,
						Message: fmt.Sprintf("//lint:%s names unknown check %q", kind, check)})
					continue
				case reason == "":
					malformed = append(malformed, Diagnostic{Pos: cpos, Check: directiveCheck,
						Message: "//lint:" + kind + " " + check + " needs a reason"})
					continue
				}
				switch kind {
				case "package-allow":
					ai.pkg[check] = true
				case "file-allow":
					fileSet(ai.files, filename)[check] = true
				default: // line scope: the directive's line and the one below
					ai.dirs = append(ai.dirs, lineKey{filename, cpos.Line, check})
					ai.lines[lineKey{filename, cpos.Line, check}] = true
					ai.lines[lineKey{filename, cpos.Line + 1, check}] = true
				}
			}
		}
	}
	return ai, malformed
}

func cutDirective(text string) (kind, rest string, ok bool) {
	const prefix = "//lint:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	body := text[len(prefix):]
	for _, k := range []string{"package-allow", "file-allow", "allow"} {
		if r, found := strings.CutPrefix(body, k); found && (r == "" || r[0] == ' ' || r[0] == '\t') {
			return k, r, true
		}
	}
	return "", "", false
}

// firstField returns the directive head (up to the first space) for error
// messages, so a long trailing comment does not flood the diagnostic.
func firstField(text string) string {
	if i := strings.IndexAny(text, " \t"); i >= 0 {
		return text[:i]
	}
	return text
}

func fileSet(m map[string]map[string]bool, file string) map[string]bool {
	s, ok := m[file]
	if !ok {
		s = map[string]bool{}
		m[file] = s
	}
	return s
}
