// Package analysis is annlint: a suite of domain-specific static analyzers
// that mechanically enforce the invariants the reproduction's credibility
// rests on and the compiler cannot see — simulated results must be a pure
// function of (dataset seed, config), persisted snapshots must be
// byte-identical across runs, the //annlint:hotpath search kernels must not
// allocate, and sentinel errors must survive wrapping so annbench's
// exit-code classification works. Six analyzers encode those rules:
// wallclock, seededrand, mapiter and floatcmp (determinism), hotalloc (the
// zero-alloc SearchInto contract) and errwrap (the exit-code contract).
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the suite can be ported to the real framework and
// `go vet -vettool` once that dependency is available; the container this
// repo grows in has no module proxy, so the driver scaffolding here is a
// self-contained stdlib implementation.
//
// See DESIGN.md "Static analysis & determinism conventions" for the list of
// simulation-pure packages and the //annlint:allow directive grammar.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// modulePath is the import-path root of the policed module. The analyzers
// are domain-specific by design: their package scoping is expressed as
// svdbench import paths, not configuration.
const modulePath = "svdbench"

// An Analyzer describes one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //annlint:allow directives. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// Match reports whether the analyzer polices the package with the
	// given import path. A nil Match polices every package of the module.
	Match func(pkgPath string) bool

	// NoSuppress reports whether //annlint:allow directives for this
	// analyzer are refused in the given package. Used by wallclock: the
	// simulation-pure packages may never opt into wall-clock time, not
	// even with a justification.
	NoSuppress func(pkgPath string) bool

	// FactBased marks analyzers that export function summaries consumed
	// by later passes over importing packages. LintPackages runs them
	// over every loaded package in dependency order — including packages
	// their Match rejects and FactsOnly dependencies, where they compute
	// facts without reporting.
	FactBased bool

	// Run inspects the package and reports diagnostics through the pass.
	Run func(*Pass)
}

// A Pass connects one Analyzer run to one loaded package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	// Facts is the run-wide fact store shared by every pass of a
	// fact-based analyzer. Nil for plain AST analyzers.
	Facts *Facts

	// Reporting is false when this pass exists only to compute facts
	// (FactsOnly dependency, or a package the analyzer's Match rejects
	// in a multi-package run). Reportf is a no-op then.
	Reporting bool

	sup   *suppressions
	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if !p.Reporting {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suppressed reports whether an //annlint:allow directive for this pass's
// analyzer covers pos. Fact computation consults it so a deliberately
// allowed site also drops out of the function's exported summary — without
// this, a suppressed allocation would re-surface as a diagnostic at every
// cross-package caller.
func (p *Pass) Suppressed(pos token.Pos) bool {
	return p.sup != nil && p.sup.allowed(p.Analyzer.Name, p.Pkg.Fset.Position(pos))
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the annlint suite in stable order: the five single-pass AST
// analyzers, then hotalloc, the one fact-based analyzer.
func All() []*Analyzer {
	return []*Analyzer{
		Wallclock,
		SeededRand,
		MapIter,
		ErrWrap,
		FloatCmp,
		Hotalloc,
	}
}

// byName maps analyzer names for directive validation.
func byName(analyzers []*Analyzer) map[string]*Analyzer {
	m := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		m[a.Name] = a
	}
	return m
}

// LintPackages is the multi-pass driver: it orders pkgs dependencies-first,
// runs fact-based analyzers over every package in that order (computing
// summaries even where Match rejects or the package is FactsOnly) and AST
// analyzers over the matching non-FactsOnly packages, applies the
// //annlint:allow suppression directives, and returns the surviving
// diagnostics sorted by position. Malformed or refused directives surface as
// diagnostics of the pseudo-analyzer "annlint".
func LintPackages(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	// Directives are validated against the full suite, not the subset being
	// run: an //annlint:allow wallclock must stay well-formed in a run that
	// doesn't include wallclock.
	known := byName(append(All(), analyzers...))
	ordered := topoPackages(pkgs)
	sups := make(map[*Package]*suppressions, len(ordered))
	var diags []Diagnostic
	for _, pkg := range ordered {
		sup, sdiags := parseSuppressions(pkg, known)
		sups[pkg] = sup
		if !pkg.FactsOnly {
			diags = append(diags, sdiags...)
		}
	}
	facts := NewFacts()
	for _, a := range analyzers {
		for _, pkg := range ordered {
			matched := a.Match == nil || a.Match(pkg.Path)
			reporting := matched && !pkg.FactsOnly
			if !reporting && !a.FactBased {
				continue
			}
			if reporting && a.NoSuppress != nil && a.NoSuppress(pkg.Path) {
				diags = append(diags, sups[pkg].refuse(a.Name, pkg.Path)...)
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, Reporting: reporting, sup: sups[pkg]}
			if a.FactBased {
				pass.Facts = facts
			}
			a.Run(pass)
			diags = append(diags, pass.surviving(pkg.Path)...)
		}
	}
	sortDiagnostics(diags)
	return diags
}

// surviving filters the pass's diagnostics through the package's allow
// directives (unless the analyzer refuses suppression for asPath).
func (p *Pass) surviving(asPath string) []Diagnostic {
	a := p.Analyzer
	suppressible := a.NoSuppress == nil || !a.NoSuppress(asPath)
	var out []Diagnostic
	for _, d := range p.diags {
		if suppressible && p.sup != nil && p.sup.allowed(a.Name, d.Pos) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// RunForTest executes a single analyzer over pkg, bypassing Match so
// fixtures with synthetic import paths still exercise package-scoped
// analyzers, but honoring suppressions so fixtures can prove the
// //annlint:allow directive works. asPath overrides the package path seen
// by NoSuppress.
func RunForTest(pkg *Package, a *Analyzer, asPath string) []Diagnostic {
	return RunForTestPackages([]*Package{pkg}, a, []string{asPath})
}

// RunForTestPackages executes one analyzer over a dependency-ordered chain
// of fixture packages with a shared fact store, so tests can prove a
// violation that is only visible through an imported package's summary.
// Every pass reports; asPaths (parallel to pkgs, "" meaning the package's
// own path) override the path seen by NoSuppress. Diagnostics from all
// packages are returned together.
func RunForTestPackages(pkgs []*Package, a *Analyzer, asPaths []string) []Diagnostic {
	facts := NewFacts()
	known := byName(append(All(), a))
	var diags []Diagnostic
	for i, pkg := range pkgs {
		asPath := ""
		if i < len(asPaths) {
			asPath = asPaths[i]
		}
		if asPath == "" {
			asPath = pkg.Path
		}
		sup, sdiags := parseSuppressions(pkg, known)
		diags = append(diags, sdiags...)
		if a.NoSuppress != nil && a.NoSuppress(asPath) {
			diags = append(diags, sup.refuse(a.Name, asPath)...)
		}
		pass := &Pass{Analyzer: a, Pkg: pkg, Reporting: true, sup: sup}
		if a.FactBased {
			pass.Facts = facts
		}
		a.Run(pass)
		diags = append(diags, pass.surviving(asPath)...)
	}
	sortDiagnostics(diags)
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
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
		return a.Analyzer < b.Analyzer
	})
}

// hasPathPrefix reports whether path is prefix or lives below it.
func hasPathPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// anyPathPrefix reports whether path matches any of the prefixes.
func anyPathPrefix(path string, prefixes ...string) bool {
	for _, p := range prefixes {
		if hasPathPrefix(path, p) {
			return true
		}
	}
	return false
}

// pkgFunc resolves expr (an identifier or selector used as a function) to a
// package-level *types.Func declared in pkgPath, or nil. Methods do not
// qualify: a *rand.Rand method is seeded and fine where the package-level
// rand.Intn is not.
func pkgFunc(info *types.Info, expr ast.Expr, pkgPath string) *types.Func {
	var id *ast.Ident
	switch e := expr.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return nil
	}
	return fn
}

// enclosingFuncs walks file and calls fn for every function declaration and
// literal together with its body. Convenience for analyzers that need the
// enclosing signature (errwrap).
func enclosingFuncs(file *ast.File, fn func(ft *ast.FuncType, body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Type, d.Body)
			}
		case *ast.FuncLit:
			fn(d.Type, d.Body)
		}
		return true
	})
}
