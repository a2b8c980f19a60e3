package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Ctxflow enforces context threading in the networked service packages
// (gns, ingest, nomad, vantage, reliable): an exported function or method that
// spawns goroutines or performs network I/O must accept a context.Context
// as its first parameter, so callers can bound and cancel it. The fault
// injection rewrite threaded contexts through these packages; this analyzer
// keeps new entry points from regressing.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc:  "exported service entry points that spawn goroutines or do network I/O take a context.Context first",
	Run:  runCtxflow,
}

// ctxflowPackages are the final path segments, under locind/internal/, that
// the analyzer gates.
var ctxflowPackages = map[string]bool{
	"gns": true, "ingest": true, "nomad": true, "vantage": true, "reliable": true,
}

// ioPackages are the packages whose calls count as "does network I/O".
// faultnet is this repo's deterministic network substrate; anything talking
// to it is on the wire as far as cancellation is concerned. Only blocking
// verbs count — Close/Addr/SetDeadline-style bookkeeping does not need a
// context.
var ioPackages = map[string]bool{
	"net": true, "locind/internal/faultnet": true,
}

var ioVerbs = []string{"Dial", "Listen", "Accept", "Read", "Write"}

func isIOCall(fn *types.Func) bool {
	if !ioPackages[funcPkgPath(fn)] {
		return false
	}
	for _, v := range ioVerbs {
		if strings.HasPrefix(fn.Name(), v) {
			return true
		}
	}
	return false
}

func runCtxflow(p *Pass) error {
	path := p.Pkg.Path()
	if !moduleInternal(path) || !ctxflowPackages[lastSegment(path)] {
		return nil
	}
	for _, f := range p.Files {
		if isTestFile(p, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if takesContextFirst(fd) {
				continue
			}
			if why := concurrencyOrIO(p, fd.Body); why != "" {
				p.Reportf(fd.Name.Pos(), "exported %s %s but its first parameter is not a context.Context; callers cannot cancel or bound it", fd.Name.Name, why)
			}
		}
	}
	return nil
}

func takesContextFirst(fd *ast.FuncDecl) bool {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	sel, ok := params.List[0].Type.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context"
}

// concurrencyOrIO describes the first goroutine spawn or I/O call in body
// ("" if none). Function literals are included: a goroutine launched from a
// closure the function starts is still the function's concurrency.
func concurrencyOrIO(p *Pass, body *ast.BlockStmt) string {
	why := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			why = "spawns goroutines"
		case *ast.CallExpr:
			if fn := calleeFunc(p.TypesInfo, n); fn != nil && isIOCall(fn) {
				why = "does network I/O (" + lastSegment(funcPkgPath(fn)) + "." + fn.Name() + ")"
			}
		}
		return true
	})
	return why
}
