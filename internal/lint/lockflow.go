package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lockflow polices the module's mutex discipline — the invariants behind
// the 64-stripe core.Memo and the gns/cluster Store/breaker locks. A lock
// copied by value is not among them: go vet's copylocks, a blocking CI step
// and part of make lint, is the one enforcer of that.
//
//  1. Locks held across blocking operations: between a Lock/RLock and its
//     Unlock (or to function end, for defer), no channel send/receive, no
//     default-less select, and no call into the blocking watchlist —
//     net dials/reads, time.Sleep, sync.WaitGroup.Wait, gns.Exchange and
//     gns.Transport.Exchange, reliable.Policy.Do — directly or through a same-package helper that
//     transitively blocks. A lock held across a network round trip turns
//     one slow replica into a convoy of every caller.
//
//  2. Self-deadlock: a mutex locked again while the same expression
//     already holds it.
//
//  3. Inconsistent acquisition order: if somewhere in the package lock
//     class A is taken while B is held and elsewhere B while A is held,
//     the two sites are a deadlock waiting for the right interleaving.
//     Classes are struct-type-qualified fields ("Store.mu"), so two
//     instances of the same stripe class do not count (ordering within a
//     class is invisible statically).
//
// The analysis is a linear source-order scan per function — deliberately
// simple, matching how this module writes critical sections (lock, work,
// unlock in one lexical run). A deliberate hold-across-blocking (a
// serialized quorum write) is annotated //lint:allow lockflow <reason>.
var Lockflow = &Analyzer{
	Name: "lockflow",
	Doc:  "no locks held across blocking operations, no self-deadlocks, no lock-order inversions",
	Run:  runLockflow,
}

func runLockflow(p *Pass) error {
	blocks := blockingSummaries(p)
	orders := map[orderPair]token.Pos{}
	for _, f := range p.Files {
		if isTestFile(p, f) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkHeldLocks(p, fd.Body, blocks, orders)
			}
		}
	}
	reportOrderInversions(p, orders)
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
		ast.Inspect(fd.Body, func(n ast.Node) bool {
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
		})
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

type heldLock struct {
	key   string // rendered lock expression, e.g. "c.mu"
	class string // type-qualified class, e.g. "Client.mu", for ordering
	read  bool   // RLock
}

type orderPair struct{ first, second string }

// checkHeldLocks scans one function body in source order, tracking which
// mutexes are held, flagging blocking operations under a lock and
// recording acquisition-order pairs.
func checkHeldLocks(p *Pass, body *ast.BlockStmt, blocks map[*types.Func]bool, orders map[orderPair]token.Pos) {
	var held []heldLock
	heldDesc := func() string {
		keys := make([]string, len(held))
		for i, h := range held {
			keys[i] = h.key
		}
		return strings.Join(keys, ", ")
	}
	unlock := func(key string) {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].key == key {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal's body runs at call time, not here; scan it as its
			// own critical-section universe.
			checkHeldLocks(p, n.Body, blocks, orders)
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
		case *ast.CallExpr:
			key, class, kind := mutexOp(p, n)
			switch kind {
			case "lock", "rlock":
				for _, h := range held {
					if h.key == key {
						p.Reportf(n.Pos(), "%s locked again while already held (self-deadlock)", key)
					} else if h.class != class && h.class != "" && class != "" {
						orders[orderPair{h.class, class}] = n.Pos()
					}
				}
				held = append(held, heldLock{key: key, class: class, read: kind == "rlock"})
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
	})
}

// mutexOp classifies a call as a mutex operation on a sync.Mutex/RWMutex
// and returns the lock's rendered key and class.
func mutexOp(p *Pass, call *ast.CallExpr) (key, class, kind string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	fn, _ := p.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || funcPkgPath(fn) != "sync" {
		return "", "", ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", ""
	}
	rt := recv.Type()
	if ptr, okp := rt.(*types.Pointer); okp {
		rt = ptr.Elem()
	}
	named, okn := rt.(*types.Named)
	if !okn || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return "", "", ""
	}
	key = types.ExprString(sel.X)
	class = lockClass(p, sel.X)
	switch fn.Name() {
	case "Lock":
		return key, class, "lock"
	case "RLock":
		return key, class, "rlock"
	case "Unlock", "RUnlock":
		return key, class, "unlock"
	case "TryLock", "TryRLock":
		return key, class, "lock" // a successful try holds the lock
	}
	return "", "", ""
}

// lockClass renders the type-qualified class of a lock expression: for a
// field selector x.mu it is "<TypeOf(x)>.mu"; for anything else "" (local
// and global locks have no cross-function class identity worth ordering).
func lockClass(p *Pass, e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	t := p.TypesInfo.Types[sel.X].Type
	if t == nil {
		return ""
	}
	if ptr, okp := t.(*types.Pointer); okp {
		t = ptr.Elem()
	}
	named, okn := t.(*types.Named)
	if !okn {
		return ""
	}
	return named.Obj().Name() + "." + sel.Sel.Name
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// reportOrderInversions reports every pair of lock classes acquired in
// both orders within the package.
func reportOrderInversions(p *Pass, orders map[orderPair]token.Pos) {
	var pairs []orderPair
	for pr := range orders {
		pairs = append(pairs, pr)
	}
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.first != b.first {
			return a.first < b.first
		}
		return a.second < b.second
	})
	for _, pr := range pairs {
		rev := orderPair{pr.second, pr.first}
		if _, inverted := orders[rev]; !inverted {
			continue
		}
		if pr.first > pr.second {
			continue // report each inverted pair once, from its lexical min
		}
		p.Reportf(orders[pr], "lock order inversion: %s is acquired while %s is held here, and the opposite order occurs at %s",
			pr.second, pr.first, p.Fset.Position(orders[rev]))
	}
}
