package lint

import (
	"go/ast"
	"strings"
)

// The //lint:zeroalloc annotation.
//
//	//lint:zeroalloc [note]
//
// written in the doc comment of a function or method declares that the
// function is steady-state allocation-free: once its reusable buffers have
// warmed up, running it must not grow the heap. The note is free-form and
// optional — it documents what "steady state" means for this function
// (per event, per lookup, per heap op).
//
// The annotation has one enforcer, the one that measures: each annotated
// package's TestAllocGuard calls allocguard.Check, which reads the
// annotations from the package's source with ZeroallocFuncs and fails by
// symbol and count when an annotated function — or anything its harness
// drives, across package boundaries — starts allocating, or when
// annotations and harnesses disagree (DESIGN.md §7). A directive that is
// not a function's doc comment annotates nothing; collectAllows reports it
// under the unsuppressible lintdirective check.

// zeroallocDirective is the comment prefix of the annotation.
const zeroallocDirective = "//lint:zeroalloc"

// An AnnotatedFunc is one //lint:zeroalloc-annotated declaration.
type AnnotatedFunc struct {
	// Symbol is the canonical in-package name: "F" for a function,
	// "T.M" for a method (pointer receivers are spelled the same as value
	// receivers — allocation behaviour, not method sets, is what is pinned).
	Symbol string
	// Decl is the annotated declaration.
	Decl *ast.FuncDecl
}

// ParseZeroalloc reports whether a comment line is a zeroalloc directive
// and returns its optional note. Only exact directives match: a comment
// that merely mentions the directive mid-text is not an annotation.
func ParseZeroalloc(text string) (note string, ok bool) {
	rest, found := strings.CutPrefix(text, zeroallocDirective)
	if !found {
		return "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // e.g. //lint:zeroallocate — not this directive
	}
	return strings.TrimSpace(rest), true
}

// ZeroallocFuncs returns the annotated function declarations of a parsed
// file in declaration order. It needs only syntax (parser.ParseComments),
// no type information, so allocguard.Check shares it without loading types.
func ZeroallocFuncs(f *ast.File) []AnnotatedFunc {
	var out []AnnotatedFunc
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			if _, ok := ParseZeroalloc(c.Text); !ok {
				continue
			}
			out = append(out, AnnotatedFunc{Symbol: FuncSymbol(fd), Decl: fd})
			break
		}
	}
	return out
}

// FuncSymbol renders the canonical symbol of a declaration: "F", or "T.M"
// with the receiver's base type name (pointers and type parameters
// stripped).
func FuncSymbol(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

// recvTypeName unwraps a receiver type expression to its base identifier.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr: // generic receiver T[P]
			e = t.X
		case *ast.IndexListExpr: // generic receiver T[P1, P2]
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
