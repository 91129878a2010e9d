package analysis

// Cross-package fact propagation: the multi-pass half of annlint. The
// fact-based analyzer, hotalloc, summarises every function it sees — can
// calling it heap-allocate — and exports those summaries keyed by the
// function's fully qualified name. Because LintPackages analyses packages
// in dependency order, an importing package always finds its dependencies'
// summaries already in the store, so a violation that is only visible
// through a callee in another package (say, a hot search loop calling an
// allocating helper in internal/storage) is still reported, at the call
// site, with the callee's evidence attached.
//
// The design mirrors golang.org/x/tools/go/analysis facts with two
// simplifications the stdlib-only constraint forces: facts live in one
// in-memory store for the whole run (no gob serialisation between
// processes), and they are keyed by qualified name rather than by
// types.Object identity, because the same function is a source-checked
// object in its defining package and an export-data object in its
// importers.

import (
	"go/types"
	"sort"
)

// Facts is the shared fact store of one LintPackages run. Keys are
// namespaced per analyzer, so analyzers cannot observe each other's
// summaries.
type Facts struct {
	m map[factKey]any
}

type factKey struct {
	analyzer string
	object   string
}

// NewFacts returns an empty store.
func NewFacts() *Facts { return &Facts{m: make(map[factKey]any)} }

func (f *Facts) export(analyzer, object string, v any) {
	f.m[factKey{analyzer, object}] = v
}

func (f *Facts) lookup(analyzer, object string) any {
	return f.m[factKey{analyzer, object}]
}

// FuncKey returns the cross-package identity of a function or method:
// "pkgpath.Name" for package-level functions, "pkgpath.Recv.Name" for
// methods. The key is identical whether fn came from source type-checking or
// from compiler export data, which is what lets facts exported by the
// defining package be found from an importing package's view of the same
// function.
func FuncKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name() // error.Error and other universe-scope methods
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return key + named.Obj().Name() + "." + fn.Name()
		}
		return key + "?." + fn.Name()
	}
	return key + fn.Name()
}

// ExportFact records an analyzer-scoped summary for fn, visible to later
// passes of the same analyzer over packages that import this one.
func (p *Pass) ExportFact(fn *types.Func, v any) {
	if p.Facts == nil {
		return
	}
	p.Facts.export(p.Analyzer.Name, FuncKey(fn), v)
}

// ImportFact returns the summary a prior pass of this analyzer exported for
// fn, or nil when none exists (an unanalysed function — standard library,
// assembly, or a package outside the loaded set). Callers must treat nil as
// "assume the default", and the default must be the permissive one: facts
// sharpen diagnostics, they never invent them.
func (p *Pass) ImportFact(fn *types.Func) any {
	if p.Facts == nil {
		return nil
	}
	return p.Facts.lookup(p.Analyzer.Name, FuncKey(fn))
}

// topoPackages orders pkgs dependencies-first using their import lists
// (edges outside the given set are ignored). Ties and cycles — which cannot
// occur in a compilable module — resolve in the original order, so the
// result is deterministic.
func topoPackages(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	ordered := make([]*Package, 0, len(pkgs))
	state := make(map[*Package]int, len(pkgs)) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p] != 0 {
			return
		}
		state[p] = 1
		imps := append([]string(nil), p.Imports...)
		sort.Strings(imps)
		for _, imp := range imps {
			if dep, ok := byPath[imp]; ok && state[dep] == 0 {
				visit(dep)
			}
		}
		state[p] = 2
		ordered = append(ordered, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return ordered
}
