package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism flags the two ways nondeterminism has actually leaked into
// this repository's simulation results:
//
//  1. Wall-clock reads (time.Now, time.Since) in locind/internal/...
//     packages. Simulated time is an explicit parameter everywhere in the
//     pipeline; reading the host clock makes runs unreproducible.
//  2. Map iteration feeding order-sensitive sinks: a `range` over a map
//     whose body appends to a slice (without a subsequent sort) or writes to
//     an io.Writer (fmt.Fprint*, a Write/WriteString method). The append
//     case is the shape of the topology.PreferentialAttachment regression,
//     whose degree-sampling pool was appended to in map order, so one seed's
//     draws picked different nodes and every run grew a different graph; the
//     writer case is expt.Export's, whose fig6/7/9.csv row groups came out
//     in map order until PR 16.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "wall-clock reads and map-iteration order leaking into simulation output",
	Run:  runDeterminism,
}

func runDeterminism(p *Pass) error {
	simulation := moduleInternal(p.Pkg.Path())
	for _, f := range p.Files {
		if isTestFile(p, f) {
			continue
		}
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(p.TypesInfo, n)
				if simulation && fn != nil && funcPkgPath(fn) == "time" && (fn.Name() == "Now" || fn.Name() == "Since") {
					p.Reportf(n.Pos(), "time.%s reads the wall clock in a simulation package; thread simulated time (or a clock) through parameters", fn.Name())
				}
			case *ast.RangeStmt:
				checkMapRange(p, n, stack)
			}
			return true
		})
	}
	return nil
}

// checkMapRange looks inside a range-over-map body for the order-sensitive
// sinks described on Determinism.
func checkMapRange(p *Pass, rng *ast.RangeStmt, stack []ast.Node) {
	t := p.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	fn := enclosingFunc(stack)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := p.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
				obj := identObject(p.TypesInfo, call.Args[0])
				if obj != nil && sortedAfter(p, fn, rng, obj) {
					return true // collect-then-sort idiom: deterministic
				}
				p.Reportf(call.Pos(), "append inside range over map records map iteration order; sort the slice afterwards or iterate sorted keys")
			}
		}
		if callee := calleeFunc(p.TypesInfo, call); callee != nil && isWriterSink(callee) {
			p.Reportf(call.Pos(), "%s inside range over map writes bytes in map iteration order (the fig6.csv regression); iterate sorted keys instead", callee.Name())
		}
		return true
	})
}

// isWriterSink reports whether fn puts bytes on an output in call order:
// fmt.Fprint*, whose first argument is the writer, or any Write/WriteString
// method (io.Writer, *os.File, *bufio.Writer, strings.Builder, csv.Writer,
// hash.Hash — order reaches each of them).
func isWriterSink(fn *types.Func) bool {
	if fn.Type().(*types.Signature).Recv() != nil {
		return fn.Name() == "Write" || fn.Name() == "WriteString"
	}
	return funcPkgPath(fn) == "fmt" && strings.HasPrefix(fn.Name(), "Fprint")
}

// sortedAfter reports whether obj is passed to a sorting call after the
// range statement but inside the same function — the standard
// collect-keys-then-sort idiom, which is deterministic. A sorting call is
// anything in sort/slices, or a same-package helper whose body itself calls
// into sort/slices (one level deep).
func sortedAfter(p *Pass, fn ast.Node, rng *ast.RangeStmt, obj types.Object) bool {
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		callee := calleeFunc(p.TypesInfo, call)
		if callee == nil || !isSortFunc(p, callee) {
			return true
		}
		for _, arg := range call.Args {
			if identObject(p.TypesInfo, arg) == obj {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

func isSortFunc(p *Pass, fn *types.Func) bool {
	switch funcPkgPath(fn) {
	case "sort", "slices":
		return true
	}
	if fn.Pkg() != p.Pkg {
		return false
	}
	// Same-package helper: accept it if its body delegates to sort/slices.
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || p.TypesInfo.Defs[fd.Name] != fn || fd.Body == nil {
				continue
			}
			delegates := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if inner := calleeFunc(p.TypesInfo, call); inner != nil {
						switch funcPkgPath(inner) {
						case "sort", "slices":
							delegates = true
							return false
						}
					}
				}
				return true
			})
			return delegates
		}
	}
	return false
}
