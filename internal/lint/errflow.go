package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Errflow flags discarded errors. What it has caught: expt.Export's
// dropped os.File.Close on a written CSV, and cmd/locind's two dropped
// fmt.Fprintf into its experiment log ring:
//
//  1. A call whose results include an error, used as a bare expression
//     statement, when the callee lives in a watched package: this module's
//     internal/stats and internal/core, or the io/bufio/encoding/os
//     write-path packages the expt drivers export through. fmt.Fprint* is
//     watched only when the destination can actually fail (writes to
//     *bytes.Buffer, *strings.Builder, os.Stdout, and os.Stderr are
//     conventionally unchecked).
//  2. Any error explicitly discarded with a blank identifier (`_ = f()` or
//     `v, _ := f()`), outside _test.go files, anywhere in the module.
//
// Deferred calls are exempt: `defer f.Close()` on a read path is accepted
// Go. A deliberate discard is annotated `//lint:allow errflow <reason>`.
var Errflow = &Analyzer{
	Name: "errflow",
	Doc:  "errors from internal/stats, internal/core, and io/encoding sinks must not be discarded",
	Run:  runErrflow,
}

func watchedErrPkg(path string) bool {
	switch path {
	case "locind/internal/stats", "locind/internal/core", "io", "bufio", "os":
		return true
	}
	return strings.HasPrefix(path, "encoding/")
}

func runErrflow(p *Pass) error {
	for _, f := range p.Files {
		if isTestFile(p, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				return false
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDroppedCall(p, call)
				}
			case *ast.AssignStmt:
				checkBlankedErrors(p, n)
			}
			return true
		})
	}
	return nil
}

// checkDroppedCall reports a watched call used as a statement even though
// its results include an error.
func checkDroppedCall(p *Pass, call *ast.CallExpr) {
	fn := calleeFunc(p.TypesInfo, call)
	if fn == nil {
		return
	}
	path := funcPkgPath(fn)
	if !watchedErrPkg(path) && !(path == "fmt" && fallibleFprint(p, fn.Name(), call)) {
		return
	}
	// Methods on sinks that cannot fail mid-stream are exempt: hash writes
	// never error, and bufio.Writer latches the first error until Flush —
	// which is itself watched, so the error still surfaces exactly once.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recv := typeString(p.TypesInfo, sel.X)
		if writerNeverFails(recv) && !(recv == "*bufio.Writer" && fn.Name() == "Flush") {
			return
		}
	}
	if !resultsIncludeError(p, call) {
		return
	}
	p.Reportf(call.Pos(), "%s.%s returns an error that is discarded here; handle it or annotate //lint:allow errflow <reason>", lastSegment(path), fn.Name())
}

// writerNeverFails lists destination types whose Write cannot produce an
// error worth checking at each call site: in-memory buffers and builders,
// hashes (hash.Hash documents that Write never returns an error), the
// latching *bufio.Writer (only Flush reports), and http.ResponseWriter
// (the response is already in flight; there is nothing to do with the
// error but drop the handler).
func writerNeverFails(typ string) bool {
	switch typ {
	case "*bytes.Buffer", "*strings.Builder", "*bufio.Writer",
		"hash.Hash", "hash.Hash32", "hash.Hash64", "net/http.ResponseWriter":
		return true
	}
	return false
}

// fallibleFprint reports whether a fmt.Fprint* call writes to a destination
// whose Write can actually fail.
func fallibleFprint(p *Pass, name string, call *ast.CallExpr) bool {
	if !strings.HasPrefix(name, "Fprint") || len(call.Args) == 0 {
		return false
	}
	if writerNeverFails(typeString(p.TypesInfo, call.Args[0])) {
		return false
	}
	if obj := identObject(p.TypesInfo, call.Args[0]); obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == "os" && (obj.Name() == "Stdout" || obj.Name() == "Stderr") {
		return false
	}
	return true
}

// checkBlankedErrors reports assignments that discard an error into _.
func checkBlankedErrors(p *Pass, as *ast.AssignStmt) {
	// v1, _ := f()  — one call, tuple results.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		tuple, ok := p.TypesInfo.Types[call].Type.(*types.Tuple)
		if !ok {
			return
		}
		for i, lhs := range as.Lhs {
			if isBlank(lhs) && i < tuple.Len() && isErrorType(tuple.At(i).Type()) {
				p.Reportf(lhs.Pos(), "error discarded with blank identifier; handle it or annotate //lint:allow errflow <reason>")
			}
		}
		return
	}
	// _ = expr (possibly parallel assignment).
	for i, lhs := range as.Lhs {
		if !isBlank(lhs) || i >= len(as.Rhs) {
			continue
		}
		if isErrorType(p.TypesInfo.Types[as.Rhs[i]].Type) {
			p.Reportf(lhs.Pos(), "error discarded with blank identifier; handle it or annotate //lint:allow errflow <reason>")
		}
	}
}

func resultsIncludeError(p *Pass, call *ast.CallExpr) bool {
	switch t := p.TypesInfo.Types[call].Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
	default:
		return isErrorType(t)
	}
	return false
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
