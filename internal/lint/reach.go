package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Reach reports every package-level declaration — function, method, type,
// variable, constant — in a non-test file that no binary can reach, and every
// package no binary links. It is a conservative walk over go/types. The roots
// are main and init of each main package loaded outside examples/ (an example
// is checked by running it: it is neither a root nor judged), plus the init
// functions and package-level initialisers of everything those import. A
// declaration is reached when reached code names it. A method is also reached
// when its type is and the type satisfies an interface one of whose methods of
// that name is called in reached code or declared by a standard-library
// package the module imports (which may call it where the walk cannot see:
// sort.Interface, error, http.Handler). With no main package loaded, or with
// one that imports an internal package left out of the load, there is nothing
// to judge. A declaration under //lint:allow reach is a finding and then a
// root: what only it calls needs no directive of its own, and a kept type
// keeps its methods. A //lint:allow reach that covers no finding is itself a
// finding.
var Reach = &Analyzer{
	Name:   "reach",
	Doc:    "declarations no binary outside examples/ (cmd/, bench) can reach",
	RunAll: runReach,
}

type reachDecl struct {
	pass *Pass
	node ast.Node        // walked once the declaration is reached
	id   *ast.Ident      // where an unreached declaration is reported
	recv *types.TypeName // a method's receiver type, else nil
}

type reacher struct {
	decls    map[types.Object]*reachDecl
	reached  map[types.Object]bool
	work     []types.Object
	dispatch map[string][]*types.Interface // method name -> the interfaces whose implementers keep it
}

func runReach(passes []*Pass) {
	r := &reacher{decls: map[types.Object]*reachDecl{}, reached: map[types.Object]bool{}, dispatch: map[string][]*types.Interface{}}
	ours := map[*types.Package]bool{}
	for _, p := range passes {
		ours[p.Pkg] = true
	}
	linked := map[*types.Package]bool{}
	whole := true // every module package the mains import is among the passes
	var link func(tp *types.Package)
	link = func(tp *types.Package) {
		if linked[tp] {
			return
		}
		linked[tp] = true
		if !ours[tp] { // standard library: its interfaces dispatch into ours
			whole = whole && !moduleInternal(tp.Path())
			for _, name := range tp.Scope().Names() {
				if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					r.addDispatch(tn.Type(), "")
				}
			}
			return
		}
		for _, imp := range tp.Imports() {
			link(imp)
		}
	}
	example := func(p *Pass) bool { return strings.Contains("/"+p.Pkg.Path()+"/", "/examples/") }
	for _, p := range passes {
		if p.Pkg.Name() == "main" && !example(p) {
			link(p.Pkg)
		}
	}
	if len(linked) == 0 || !whole {
		return
	}
	// An error's Error is the universe's to call; errors.Is, As and Unwrap
	// find the other three through interfaces that have no name.
	for _, m := range []string{"Error", "Unwrap", "Is", "As"} {
		r.dispatch[m] = append(r.dispatch[m], types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	}

	for _, p := range passes {
		if len(p.Files) == 0 || example(p) {
			continue // a directory of _test.go files only, or an example: no production declaration
		}
		if !linked[p.Pkg] {
			p.Reportf(p.Files[0].Package, "package %s is linked by no binary", p.Pkg.Path())
			continue
		}
		for _, f := range p.Files {
			if isTestFile(p, f) {
				continue
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					rd := &reachDecl{pass: p, node: d, id: d.Name}
					if d.Recv != nil {
						rd.recv, _ = p.Pkg.Scope().Lookup(recvTypeName(d.Recv.List[0].Type)).(*types.TypeName)
					}
					r.decls[p.TypesInfo.Defs[d.Name]] = rd
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.Pkg.Name() == "main") {
						r.mark(p.TypesInfo.Defs[d.Name])
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							r.decls[p.TypesInfo.Defs[s.Name]] = &reachDecl{pass: p, node: s, id: s.Name}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								r.decls[p.TypesInfo.Defs[id]] = &reachDecl{pass: p, node: s, id: id}
							}
							if d.Tok == token.VAR && len(s.Values) > 0 {
								r.walk(p, s) // initialisers run whether or not the variable is read
							}
						}
					}
				}
			}
		}
	}
	// Two rounds: what the binaries reach, then what the declarations kept by
	// a directive reach on top of that. The first reports only kept
	// declarations, and each becomes a root of the second.
	findings := map[lineKey]bool{}
	for _, final := range []bool{false, true} {
		r.fixpoint()
		for obj, d := range r.decls {
			pos := d.pass.Fset.Position(d.id.Pos())
			key := lineKey{pos.Filename, pos.Line, "reach"}
			if r.reached[obj] || obj.Name() == "_" || !d.pass.allows.lines[key] && !final || d.recv != nil && !r.reached[d.recv] {
				continue // reached, or not this round's, or a method whose type's finding covers it
			}
			d.pass.Reportf(d.id.Pos(), "%s is reachable from no binary", obj.Name())
			findings[key] = true
			r.mark(obj)
			for m, md := range r.decls {
				if md.recv == obj {
					r.mark(m)
				}
			}
		}
	}
	for _, p := range passes {
		for _, dir := range p.allows.dirs {
			if below := (lineKey{dir.file, dir.line + 1, dir.check}); linked[p.Pkg] && dir.check == "reach" && !findings[dir] && !findings[below] {
				*p.diags = append(*p.diags, Diagnostic{Pos: token.Position{Filename: dir.file, Line: dir.line}, Check: directiveCheck,
					Message: "//lint:allow reach covers no finding: the declaration is reachable"})
			}
		}
	}
}

func (r *reacher) mark(obj types.Object) {
	if r.decls[obj] != nil && !r.reached[obj] {
		r.reached[obj] = true
		r.work = append(r.work, obj)
	}
}

// fixpoint walks every marked declaration, then marks the methods those
// walks made reachable through an interface, until neither adds anything.
func (r *reacher) fixpoint() {
	for len(r.work) > 0 {
		for len(r.work) > 0 {
			d := r.decls[r.work[len(r.work)-1]]
			r.work = r.work[:len(r.work)-1]
			r.walk(d.pass, d.node)
		}
		for m, d := range r.decls {
			if d.recv != nil && !r.reached[m] && r.reached[d.recv] &&
				slices.ContainsFunc(r.dispatch[m.Name()], func(i *types.Interface) bool { return satisfies(d.recv.Type().(*types.Named), i) }) {
				r.mark(m)
			}
		}
	}
}

// walk marks every declaration that node names, and records each interface
// method node calls.
func (r *reacher) walk(p *Pass, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch obj := p.TypesInfo.Uses[id].(type) {
			case *types.Func:
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					r.addDispatch(recv.Type(), obj.Name())
				}
				r.mark(obj.Origin())
			case *types.Var:
				r.mark(obj.Origin())
			case *types.TypeName, *types.Const:
				r.mark(obj)
			}
		}
		return true
	})
}

// addDispatch records that method name of interface type t may be called —
// every method when name is empty. Other types record nothing.
func (r *reacher) addDispatch(t types.Type, name string) {
	iface, ok := t.Underlying().(*types.Interface)
	for i := 0; ok && i < iface.NumMethods(); i++ {
		if m := iface.Method(i).Name(); (name == "" || name == m) && !slices.Contains(r.dispatch[m], iface) {
			r.dispatch[m] = append(r.dispatch[m], iface)
		}
	}
}

// satisfies reports whether T or *T implements iface. Implements is
// unspecified on an uninstantiated generic type, which is held to carrying
// every method of iface by name.
func satisfies(T *types.Named, iface *types.Interface) bool {
	if T.TypeParams().Len() == 0 {
		return types.Implements(T, iface) || types.Implements(types.NewPointer(T), iface)
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(T), false, m.Pkg(), m.Name()); obj == nil {
			return false
		}
	}
	return true
}
