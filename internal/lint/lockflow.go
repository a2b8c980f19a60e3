package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Lockflow polices the one mutex rule the module has broken: no lock held
// across a blocking operation. Between a Lock/RLock and its Unlock (or to
// function end, for defer) there is no channel send or receive, no
// default-less select, and no call into the blocking watchlist — net
// dials/reads, time.Sleep, sync.WaitGroup.Wait, gns.Exchange and
// gns.Transport.Exchange, reliable.Policy.Do — directly or through a
// same-package helper that transitively blocks. A lock held across a network
// round trip turns one slow replica into a convoy of every caller: the
// cluster.Client convoy was the transitive case. A lock copied by value is
// go vet's copylocks, a blocking CI step and part of make lint.
//
// The analysis is a linear source-order scan per function — deliberately
// simple, matching how this module writes critical sections (lock, work,
// unlock in one lexical run). A deliberate hold-across-blocking (a
// serialized quorum write) is annotated //lint:allow lockflow <reason>.
var Lockflow = &Analyzer{
	Name: "lockflow",
	Doc:  "no locks held across blocking operations",
	Run:  runLockflow,
}

func runLockflow(p *Pass) error {
	blocks := blockingSummaries(p)
	for _, f := range p.Files {
		if isTestFile(p, f) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkHeldLocks(p, fd.Body, blocks)
			}
		}
	}
	return nil
}

// ------------------------------------------------- blocking call summary —

// blockingSummaries computes, for every function declared in the package,
// whether it transitively performs a watched blocking operation through
// same-package calls.
func blockingSummaries(p *Pass) map[*types.Func]bool {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range p.Files {
		if isTestFile(p, f) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	blocks := map[*types.Func]bool{}
	calls := map[*types.Func][]*types.Func{}
	for fn, fd := range decls {
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				blocks[fn] = true
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					blocks[fn] = true
				}
			case *ast.SelectStmt:
				if !selectHasDefault(n) {
					blocks[fn] = true
				}
				inspectCases(n, visit)
				return false
			case *ast.CallExpr:
				callee := calleeFunc(p.TypesInfo, n)
				if callee == nil {
					return true
				}
				if blockingWatchlist(callee) != "" {
					blocks[fn] = true
				} else if _, samePkg := decls[callee]; samePkg {
					//lint:allow determinism each calls[fn] slice is filled by one deterministic AST walk; the cross-iteration map order never reaches output
					calls[fn] = append(calls[fn], callee)
				}
			}
			return true
		}
		ast.Inspect(fd.Body, visit)
	}
	// Propagate to a fixpoint (the call graphs here are tiny).
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			if blocks[fn] {
				continue
			}
			for _, c := range callees {
				if blocks[c] {
					blocks[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return blocks
}

// blockingWatchlist names the blocking operation a call performs, or "".
func blockingWatchlist(fn *types.Func) string {
	path, name := funcPkgPath(fn), fn.Name()
	switch path {
	case "net":
		// Only the genuinely blocking surface: dials, listens, lookups,
		// accepts, and conn reads/writes. Addr.String and friends are pure.
		switch {
		case strings.HasPrefix(name, "Dial"), strings.HasPrefix(name, "Listen"),
			strings.HasPrefix(name, "Lookup"), strings.HasPrefix(name, "Accept"),
			strings.HasPrefix(name, "Read"), strings.HasPrefix(name, "Write"):
			return "net." + name
		}
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		if name == "Wait" {
			return "sync...Wait"
		}
	case "os/exec":
		switch name {
		case "Run", "Wait", "Output", "CombinedOutput":
			return "exec." + name
		}
	case "net/http":
		switch name {
		case "Get", "Post", "PostForm", "Head", "ListenAndServe", "Serve", "Do":
			return "http." + name
		}
	case "locind/internal/gns":
		if name == "Exchange" {
			if fn.Type().(*types.Signature).Recv() != nil {
				return "gns.Transport.Exchange (a network round trip with retries, on a pooled socket)"
			}
			return "gns.Exchange (a network round trip with retries)"
		}
	case "locind/internal/reliable":
		if name == "Do" {
			return "reliable.Policy.Do (retries with backoff sleeps)"
		}
	}
	return ""
}

// ----------------------------------------------------- held-lock scanner —

// checkHeldLocks scans one function body in source order, tracking which
// mutexes are held (by rendered lock expression, e.g. "c.mu") and flagging
// blocking operations under a lock.
func checkHeldLocks(p *Pass, body *ast.BlockStmt, blocks map[*types.Func]bool) {
	var held []string
	heldDesc := func() string { return strings.Join(held, ", ") }
	unlock := func(key string) {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i] == key {
				held = slices.Delete(held, i, i+1)
				return
			}
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal's body runs at call time, not here; scan it as its
			// own critical-section universe.
			checkHeldLocks(p, n.Body, blocks)
			return false
		case *ast.DeferStmt:
			// A deferred Unlock runs at function exit, so the lock stays in
			// the held set for the rest of the linear scan — exactly the
			// "held to end" semantics we want. Deferred bodies themselves
			// are not "now", so do not descend.
			return false
		case *ast.SendStmt:
			if len(held) > 0 {
				p.Reportf(n.Pos(), "channel send while holding %s; a blocked receiver convoys every caller of the lock", heldDesc())
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(held) > 0 {
				p.Reportf(n.Pos(), "channel receive while holding %s", heldDesc())
			}
		case *ast.SelectStmt:
			if len(held) > 0 && !selectHasDefault(n) {
				p.Reportf(n.Pos(), "blocking select while holding %s", heldDesc())
			}
			inspectCases(n, visit)
			return false
		case *ast.CallExpr:
			key, kind := mutexOp(p, n)
			switch kind {
			case "lock":
				held = append(held, key)
				return false
			case "unlock":
				unlock(key)
				return false
			}
			if len(held) == 0 {
				return true
			}
			callee := calleeFunc(p.TypesInfo, n)
			if callee == nil {
				return true
			}
			if op := blockingWatchlist(callee); op != "" {
				p.Reportf(n.Pos(), "%s called while holding %s; the lock is held across a blocking operation", op, heldDesc())
			} else if blocks[callee] {
				p.Reportf(n.Pos(), "%s transitively blocks (network/sleep/channel) and is called while holding %s", callee.Name(), heldDesc())
			}
		}
		return true
	}
	ast.Inspect(body, visit)
}

// mutexOp classifies a call as a mutex operation on a sync.Mutex/RWMutex
// and returns the lock's rendered key.
func mutexOp(p *Pass, call *ast.CallExpr) (key, kind string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, _ := p.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || funcPkgPath(fn) != "sync" {
		return "", ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", ""
	}
	rt := recv.Type()
	if ptr, okp := rt.(*types.Pointer); okp {
		rt = ptr.Elem()
	}
	named, okn := rt.(*types.Named)
	if !okn || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock": // a successful try holds the lock
		return types.ExprString(sel.X), "lock"
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), "unlock"
	}
	return "", ""
}

// inspectCases walks s's cases but not their send and receive arrows, which
// block or not with the select as a whole; the arrows' operands are walked.
func inspectCases(s *ast.SelectStmt, visit func(ast.Node) bool) {
	for _, c := range s.Body.List {
		var arrow ast.Node = c.(*ast.CommClause).Comm // a send is its own arrow
		switch comm := arrow.(type) {
		case *ast.ExprStmt:
			arrow = ast.Unparen(comm.X)
		case *ast.AssignStmt:
			arrow = ast.Unparen(comm.Rhs[0])
		}
		ast.Inspect(c, func(n ast.Node) bool { return n == arrow || visit(n) })
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
