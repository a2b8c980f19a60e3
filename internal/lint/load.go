package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
)

// A Package is one loaded, type-checked package.
type Package struct {
	Path     string
	Dir      string
	Standard bool // part of the Go distribution
	DepOnly  bool // pulled in as a dependency, not named by the load patterns

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors holds type-checker errors for non-standard packages. The
	// caller decides whether they are fatal; analyzers run best-effort on
	// whatever information survived.
	TypeErrors []error

	importMap map[string]string
}

// A Loader loads packages via `go list -json -deps` and type-checks them
// bottom-up with the standard library's go/types. Loaded packages are cached
// by import path, so repeated Load calls share one type-checked standard
// library. A Loader is safe for use from one goroutine at a time.
type Loader struct {
	// Dir is the directory go list runs in; it must lie inside the module
	// whose packages are being loaded (or any directory, for pure-stdlib
	// loads). Empty means the current directory.
	Dir string

	// Fset, when set before the first Load, is the file set packages are
	// parsed into — the analyzer tests share one file set between fixtures
	// and the standard library they import. Nil means a fresh one.
	Fset *token.FileSet

	mu   sync.Mutex
	pkgs map[string]*Package
}

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	Dir        string
	ImportPath string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load resolves patterns (e.g. "./...", "io", "locind/internal/stats") to
// packages, type-checks them and their dependency closure, and returns the
// packages in dependency order. Standard-library dependencies are checked
// with IgnoreFuncBodies for speed; their exported API is fully typed.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	// The mutex deliberately serializes whole loads, go list subprocess
	// included: concurrent fixture loads must not interleave writes into
	// the shared FileSet and package memo mid-load.
	//lint:file-allow lockflow the lock exists to serialize go list invocations; holding it across cmd.Wait is the point
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.Fset == nil {
		l.Fset = token.NewFileSet()
	}
	if l.pkgs == nil {
		l.pkgs = map[string]*Package{}
	}

	args := append([]string{"list", "-e", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("lint: go list: %w", err)
	}
	var listed []*listedPackage
	dec := json.NewDecoder(out)
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			cmd.Wait()
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		listed = append(listed, lp)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %w\n%s", patterns, err, stderr.String())
	}

	// go list -deps emits dependencies before dependents, so a single
	// forward sweep type-checks each package after everything it imports.
	var result []*Package
	for _, lp := range listed {
		if lp.Error != nil && lp.ImportPath == "" {
			return nil, fmt.Errorf("lint: go list: %s", lp.Error.Err)
		}
		pkg, err := l.check(lp)
		if err != nil {
			return nil, err
		}
		if !lp.DepOnly {
			// A cached package may have been a dep in an earlier Load and a
			// root now; roots are what callers analyze.
			pkg.DepOnly = false
			result = append(result, pkg)
		}
	}
	return result, nil
}

func (l *Loader) check(lp *listedPackage) (*Package, error) {
	if pkg, ok := l.pkgs[lp.ImportPath]; ok {
		return pkg, nil
	}
	pkg := &Package{
		Path:      lp.ImportPath,
		Dir:       lp.Dir,
		Standard:  lp.Standard,
		DepOnly:   lp.DepOnly,
		Fset:      l.Fset,
		importMap: lp.ImportMap,
	}
	l.pkgs[lp.ImportPath] = pkg

	if lp.ImportPath == "unsafe" {
		pkg.Types = types.Unsafe
		return pkg, nil
	}
	if lp.Error != nil {
		pkg.TypeErrors = append(pkg.TypeErrors, fmt.Errorf("%s", lp.Error.Err))
	}

	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(lp.Dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if lp.Standard {
				continue // tolerate oddities outside our module
			}
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		pkg.Files = append(pkg.Files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := &types.Config{
		Importer:         importerFunc(func(path string) (*types.Package, error) { return l.resolve(pkg, path) }),
		IgnoreFuncBodies: lp.Standard,
		FakeImportC:      true,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if !lp.Standard {
				pkg.TypeErrors = append(pkg.TypeErrors, err)
			}
		},
	}
	// Check reports the first hard error through cfg.Error and keeps going;
	// the returned error is deliberately ignored so analyzers can run on
	// partially-checked packages (the CLI surfaces TypeErrors instead).
	tpkg, _ := cfg.Check(lp.ImportPath, l.Fset, pkg.Files, info) //lint:allow errflow duplicated by cfg.Error into TypeErrors
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// resolve maps an import path as written in importer's source to a loaded
// package, honouring go list's ImportMap (which handles the standard
// library's vendored dependencies).
func (l *Loader) resolve(importer *Package, path string) (*types.Package, error) {
	if mapped, ok := importer.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	pkg, ok := l.pkgs[path]
	if !ok || pkg.Types == nil {
		return nil, fmt.Errorf("package %q not loaded", path)
	}
	return pkg.Types, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
