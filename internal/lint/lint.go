// Package lint implements this repository's custom static analyzers and the
// small analysis framework they run on.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis — an
// Analyzer holds a name, a doc string, and a Run function over a *Pass —
// but is built purely on the standard library's go/ast and go/types so the
// module stays dependency-free. Packages are loaded by load.go via
// `go list -json -deps` and type-checked bottom-up, which gives every pass
// full type information without the x/tools loader.
//
// The analyzers encode invariants the repo has already been bitten by; each
// rule of an analyzer stays for what it has caught (DESIGN.md §7 keeps the
// per-rule count), and one whose lifetime output is zero findings is
// deleted, not kept:
//
//	determinism  wall-clock reads and map-iteration order leaking into
//	             simulation output (the topology.PreferentialAttachment
//	             regression class)
//	errflow      discarded errors from internal/stats, internal/core, and
//	             io/encoding sinks (expt.Export's dropped Close)
//	ctxflow      exported gns/ingest/nomad/vantage/reliable entry points that
//	             spawn goroutines or touch the network without a
//	             context.Context
//	lockflow     locks held across blocking operations (the cluster.Client
//	             convoy)
//	reach        declarations no cmd/ or bench binary can reach: code kept
//	             alive by tests or examples alone, and packages that
//	             nothing links (the one whole-program check)
//
// Findings are suppressed with `//lint:allow <check> <reason>` comments; see
// allow.go for the three scopes (line, file, package). The companion
// //lint:zeroalloc annotation (zeroalloc.go) has one enforcer, the one that
// measures: each annotated package's TestAllocGuard, which allocguard.Check
// drives from the annotations themselves. No analyzer reads it;
// collectAllows only reports one that annotates nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one named check. Run is invoked once per package; a
// whole-program check sets RunAll instead, which is invoked once with one
// Pass per loaded package.
type Analyzer struct {
	Name   string // short lower-case identifier, used in //lint:allow directives
	Doc    string // one-paragraph description of the invariant
	Run    func(*Pass) error
	RunAll func([]*Pass)
}

// A Pass presents one package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags  *[]Diagnostic
	allows *allowIndex // the package's //lint:allow directives
}

// A Diagnostic is one finding, positioned in the file set of the pass that
// produced it.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Check, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, Errflow, Ctxflow, Lockflow, Reach}
}

// A Report is the outcome of one Run: the surviving diagnostics plus an
// accounting of how many findings //lint:allow directives suppressed — CI
// uploads the counts so suppression growth stays visible over time.
type Report struct {
	Diags             []Diagnostic
	Suppressed        int
	SuppressedByCheck map[string]int
}

// Run applies each analyzer to each package (a whole-program analyzer to all
// of them at once) and returns the surviving
// diagnostics (after //lint:allow suppression), sorted by position, along
// with the suppressed-findings accounting. Malformed //lint:allow
// directives are themselves surfaced as findings so they cannot rot
// silently.
func Run(pkgs []*Package, analyzers []*Analyzer) (*Report, error) {
	var diags []Diagnostic
	rep := &Report{SuppressedByCheck: map[string]int{}}
	allows := make([]*allowIndex, len(pkgs))
	for i, pkg := range pkgs {
		var malformed []Diagnostic
		allows[i], malformed = collectAllows(pkg)
		diags = append(diags, malformed...)
	}
	for _, a := range analyzers {
		raw := make([][]Diagnostic, len(pkgs))
		passes := make([]*Pass, len(pkgs))
		for i, pkg := range pkgs {
			passes[i] = &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &raw[i],
				allows:    allows[i],
			}
		}
		if a.RunAll != nil {
			a.RunAll(passes)
		}
		for i := 0; a.Run != nil && i < len(passes); i++ {
			if err := a.Run(passes[i]); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkgs[i].Path, err)
			}
		}
		for i := range pkgs {
			for _, d := range raw[i] {
				if allows[i].suppressed(d) {
					rep.Suppressed++
					rep.SuppressedByCheck[d.Check]++
					continue
				}
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	rep.Diags = diags
	return rep, nil
}
