package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// moduleInternal reports whether path is one of this module's library
// packages (as opposed to cmd/ binaries, examples/, or external code).
// Library packages carry the strictest determinism obligations: their
// callers must be able to replay any run bit-for-bit.
func moduleInternal(path string) bool {
	return strings.HasPrefix(path, "locind/internal/")
}

// isTestFile reports whether the file at pos is a _test.go file. Normal
// loads never include test files (go list GoFiles excludes them), but
// the fixture harness may, and the error-hygiene rules do not apply to tests.
func isTestFile(p *Pass, f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go")
}

// calleeFunc resolves the function or method a call expression invokes.
// It returns nil for calls through function-typed variables, builtins, and
// type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcPkgPath returns the import path of the package that declares fn
// ("" for error.Error and other universe-scope methods). For methods —
// including interface methods — this is the defining package, so both
// io.Writer.Write and a concrete *os.File.Close resolve usefully.
func funcPkgPath(fn *types.Func) string {
	if pkg := fn.Pkg(); pkg != nil {
		return pkg.Path()
	}
	return ""
}

// inspectWithStack walks every node under root, passing the path of
// ancestor nodes (outermost first, not including n itself).
func inspectWithStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := visit(n, stack)
		stack = append(stack, n)
		return ok
	})
}

// enclosingFunc returns the innermost function literal or declaration body
// in the stack, or nil.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// identObject resolves an expression to the object it names, unwrapping
// parens. Returns nil for anything more structured than an identifier or a
// selector (x.f resolves to f's object).
func identObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := info.Uses[e]; o != nil {
			return o
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// typeString renders the type of e, or "" when unknown.
func typeString(info *types.Info, e ast.Expr) string {
	if t := info.Types[e].Type; t != nil {
		return t.String()
	}
	return ""
}

// isErrorType reports whether t is exactly the predeclared error type.
func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}
