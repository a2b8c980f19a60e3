package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism flags the three ways nondeterminism has actually leaked into
// this repository's simulation results:
//
//  1. Wall-clock reads (time.Now, time.Since) in locind/internal/...
//     packages. Simulated time is an explicit parameter everywhere in the
//     pipeline; reading the host clock makes runs unreproducible.
//  2. Global math/rand state (rand.Intn, rand.Float64, rand.Seed, ...).
//     Every simulation draws from a *rand.Rand threaded through its
//     call chain so that a seed fully determines the run.
//  3. Map iteration feeding order-sensitive sinks: a `range` over a map
//     whose body appends to a slice (without a subsequent sort), sends on a
//     channel, draws from an RNG, or writes to an io.Writer (fmt.Fprint*,
//     a Write/WriteString method). The RNG case is the exact shape of the
//     topology.PreferentialAttachment regression, where per-node RNG draws
//     followed map order and every run grew a different graph; the writer
//     case is expt.Export's, whose fig6/7/9.csv row groups came out in map
//     order until PR 16.
//  4. Ordering or branching decisions keyed on trace identity
//     (obs.TraceContext IDs, Span.ID) in locind/internal/... packages.
//     Span IDs exist only when a tracer is attached, so a comparison on
//     one makes results differ between instrumented and bare runs —
//     exactly what the obs-on == obs-off invariant forbids. The obs
//     package itself is exempt: assembling the causal tree is the one
//     legitimate consumer of span-ID equality.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "wall-clock reads, global math/rand state, map-iteration order, and trace-identity decisions leaking into simulation output",
	Run:  runDeterminism,
}

// globalRandFuncs are the package-level math/rand (and math/rand/v2)
// functions that consume hidden process-wide state.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"IntN": true, "Uint32": true, "Uint64": true, "Uint64N": true,
	"UintN": true, "Uint": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Seed": true, "Read": true, "N": true,
}

func isRandPkg(path string) bool { return path == "math/rand" || path == "math/rand/v2" }

// isComparisonOp reports whether op orders or equates two values — the
// decision shapes that must never consume trace identity.
func isComparisonOp(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return true
	}
	return false
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
				if fn == nil {
					return true
				}
				path, name := funcPkgPath(fn), fn.Name()
				if simulation && path == "time" && (name == "Now" || name == "Since") {
					p.Reportf(n.Pos(), "time.%s reads the wall clock in a simulation package; thread simulated time (or a clock) through parameters", name)
				}
				if isRandPkg(path) && fn.Type().(*types.Signature).Recv() == nil && globalRandFuncs[name] {
					p.Reportf(n.Pos(), "rand.%s draws from global process-wide state; thread a *rand.Rand derived from the run seed", name)
				}
			case *ast.BinaryExpr:
				if simulation && p.Pkg.Path() != obsPkgPath && isComparisonOp(n.Op) {
					if from := traceIdentity(p, n.X); from != "" {
						p.Reportf(n.Pos(), "decision keyed on trace identity %s differs between instrumented and bare runs; key it on domain values instead", from)
					} else if from := traceIdentity(p, n.Y); from != "" {
						p.Reportf(n.Pos(), "decision keyed on trace identity %s differs between instrumented and bare runs; key it on domain values instead", from)
					}
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
		switch n := n.(type) {
		case *ast.SendStmt:
			p.Reportf(n.Pos(), "channel send inside range over map: the receiver observes random order; iterate sorted keys instead")
		case *ast.CallExpr:
			switch callee := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if b, ok := p.TypesInfo.Uses[callee].(*types.Builtin); ok && b.Name() == "append" && len(n.Args) > 0 {
					obj := identObject(p.TypesInfo, n.Args[0])
					if obj != nil && sortedAfter(p, fn, rng, obj) {
						return true // collect-then-sort idiom: deterministic
					}
					p.Reportf(n.Pos(), "append inside range over map records map iteration order; sort the slice afterwards or iterate sorted keys")
				}
			}
			if fn := calleeFunc(p.TypesInfo, n); fn != nil {
				if isRandPkg(funcPkgPath(fn)) {
					p.Reportf(n.Pos(), "RNG draw inside range over map consumes randomness in map iteration order (the PreferentialAttachment regression); iterate sorted keys instead")
				}
				if isWriterSink(fn) {
					p.Reportf(n.Pos(), "%s inside range over map writes bytes in map iteration order (the fig6.csv regression); iterate sorted keys instead", fn.Name())
				}
			}
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
