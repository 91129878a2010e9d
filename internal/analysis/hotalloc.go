package analysis

// hotalloc statically enforces the PR 7 zero-alloc contract: no heap
// allocation may be reachable from a function whose doc comment carries
// //annlint:hotpath. The AllocsPerRun tests prove specific configurations
// allocation-free at runtime; hotalloc proves the property over the whole
// static call graph, across packages, on every `make check`.
//
// Alloc sites recognised: make, new, address-taken and slice/map composite
// literals, the first append to a nil-origin slice, goroutine spawns,
// capturing closures that escape their statement, and interface conversions
// of non-pointer-shaped concrete values. Amortised idioms are deliberately
// not sites: appending to a parameter, receiver field, or scratch-derived
// buffer reuses caller-provided capacity. Calls into other svdbench
// packages resolve through the callee's exported summary; calls into the
// standard library are assumed allocation-free unless listed in
// allocatingStdlib; dynamic (interface) calls are left to the runtime
// tests. Arguments of panic are exempt — the crash path may allocate.
//
// A site annotated //annlint:allow hotalloc is excluded from the
// function's summary too, so a justified amortised growth path (a
// cap-guarded make) does not re-surface at every caller.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// Hotalloc reports heap allocations reachable from //annlint:hotpath roots.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no heap allocation reachable from //annlint:hotpath functions (the zero-alloc search contract)",
	Match: func(pkgPath string) bool {
		return anyPathPrefix(pkgPath,
			modulePath+"/internal/index",
			modulePath+"/internal/vec",
			modulePath+"/internal/storage")
	},
	FactBased: true,
	Run:       runHotalloc,
}

// allocFact is the exported summary: whether calling the function can heap-
// allocate, and the first piece of evidence when it can.
type allocFact struct {
	allocFree bool
	why       string
}

// allocatingStdlib lists standard-library functions that always allocate.
// Everything else outside the module is assumed allocation-free: the list
// sharpens diagnostics for the formatting/conversion helpers that actually
// show up in this codebase; the AllocsPerRun tests backstop the rest.
var allocatingStdlib = map[string]bool{
	"fmt.Sprintf": true, "fmt.Sprint": true, "fmt.Sprintln": true,
	"fmt.Errorf": true, "fmt.Appendf": true,
	"errors.New": true, "errors.Join": true,
	"strings.Join": true, "strings.Repeat": true, "strings.Split": true,
	"strings.Fields": true, "strings.ToLower": true, "strings.ToUpper": true,
	"strconv.Itoa": true, "strconv.FormatInt": true, "strconv.FormatUint": true,
	"strconv.FormatFloat": true, "strconv.Quote": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Strings": true, "sort.Ints": true,
	"bytes.Join": true,
}

type allocSite struct {
	pos  token.Pos
	what string
}

type callEdge struct {
	pos token.Pos
	fn  *types.Func
}

type funcAlloc struct {
	decl  *ast.FuncDecl
	fn    *types.Func
	sites []allocSite
	edges []callEdge
	root  bool

	state int // 0 unresolved, 1 resolving, 2 done
	fact  allocFact
}

func runHotalloc(p *Pass) {
	var fns []*funcAlloc
	byObj := make(map[types.Object]*funcAlloc)
	for _, file := range p.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fa := &funcAlloc{decl: fd, fn: fn, root: isHotpathRoot(fd)}
			if fd.Body != nil {
				collectAllocs(p, fd.Body, fa)
			}
			fns = append(fns, fa)
			byObj[fn] = fa
		}
	}

	// calleeFact resolves one call edge to the callee's summary, or nil
	// when the callee is (assumed) allocation-free.
	var resolve func(fa *funcAlloc) allocFact
	calleeFact := func(fn *types.Func) *allocFact {
		if local := byObj[fn]; local != nil {
			if f := resolve(local); !f.allocFree {
				return &f
			}
			return nil
		}
		if fn.Pkg() != nil && hasPathPrefix(fn.Pkg().Path(), modulePath) {
			if f, ok := p.ImportFact(fn).(*allocFact); ok && !f.allocFree {
				return f
			}
			return nil
		}
		if allocatingStdlib[stdlibKey(fn)] {
			return &allocFact{why: "standard-library allocator"}
		}
		return nil
	}
	resolve = func(fa *funcAlloc) allocFact {
		switch fa.state {
		case 2:
			return fa.fact
		case 1:
			return allocFact{allocFree: true} // recursion: sites are attributed where they occur
		}
		fa.state = 1
		fact := allocFact{allocFree: true}
		if len(fa.sites) > 0 {
			s := fa.sites[0]
			fact = allocFact{why: fmt.Sprintf("%s at %s", s.what, shortPos(p, s.pos))}
		} else {
			for _, e := range fa.edges {
				if cf := calleeFact(e.fn); cf != nil {
					fact = allocFact{why: "calls " + e.fn.FullName() + ": " + cf.why}
					break
				}
			}
		}
		fa.state = 2
		fa.fact = fact
		p.ExportFact(fa.fn, &fact)
		return fact
	}
	for _, fa := range fns {
		resolve(fa)
	}

	// Report every site and allocating external edge reachable from a
	// hotpath root, once, attributed to the first root that reaches it.
	reported := make(map[token.Pos]bool)
	var visitHot func(fa *funcAlloc, root string, visited map[*funcAlloc]bool)
	visitHot = func(fa *funcAlloc, root string, visited map[*funcAlloc]bool) {
		if visited[fa] {
			return
		}
		visited[fa] = true
		for _, s := range fa.sites {
			if reported[s.pos] {
				continue
			}
			reported[s.pos] = true
			p.Reportf(s.pos, "%s on the hot path (reachable from //annlint:hotpath %s)", s.what, root)
		}
		for _, e := range fa.edges {
			if local := byObj[e.fn]; local != nil {
				visitHot(local, root, visited)
				continue
			}
			if cf := calleeFact(e.fn); cf != nil && !reported[e.pos] {
				reported[e.pos] = true
				p.Reportf(e.pos, "call to %s allocates (%s) on the hot path (reachable from //annlint:hotpath %s)",
					e.fn.FullName(), cf.why, root)
			}
		}
	}
	for _, fa := range fns {
		if fa.root {
			visitHot(fa, fa.fn.Name(), make(map[*funcAlloc]bool))
		}
	}
}

// isHotpathRoot reports whether the declaration's doc comment marks it as a
// zero-alloc root.
func isHotpathRoot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//annlint:hotpath" {
			return true
		}
	}
	return false
}

// collectAllocs records the unsuppressed alloc sites and static call edges
// of one function body.
func collectAllocs(p *Pass, body *ast.BlockStmt, fa *funcAlloc) {
	info := p.Pkg.Info

	// Closures that stay within their statement — immediately invoked,
	// passed to a call, deferred, spawned (the go is its own site), or
	// bound to a local variable — do not force their captures to the heap
	// in a way this linter polices.
	safeLit := make(map[*ast.FuncLit]bool)
	markSafe := func(e ast.Expr) {
		if fl, ok := ast.Unparen(e).(*ast.FuncLit); ok {
			safeLit[fl] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			markSafe(n.Fun)
			for _, a := range n.Args {
				markSafe(a)
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Rhs {
					if _, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
						markSafe(n.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			for _, v := range n.Values {
				markSafe(v)
			}
		}
		return true
	})

	site := func(pos token.Pos, what string) {
		if p.Suppressed(pos) {
			return
		}
		fa.sites = append(fa.sites, allocSite{pos: pos, what: "heap allocation (" + what + ")"})
	}

	nilSlice := make(map[types.Object]bool)
	markNil := func(id *ast.Ident, isNil bool) {
		if obj := info.ObjectOf(id); obj != nil {
			if isNil {
				nilSlice[obj] = true
			} else {
				delete(nilSlice, obj)
			}
		}
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if b := builtinOf(info, n); b != nil {
				switch b.Name() {
				case "panic":
					return false // crash path: arguments exempt
				case "make":
					site(n.Pos(), "make")
				case "new":
					site(n.Pos(), "new")
				case "append":
					if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
						if obj := info.ObjectOf(id); obj != nil && nilSlice[obj] {
							site(n.Pos(), "append to a nil-origin slice")
						}
					}
				}
				return true
			}
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				boxCheck(p, info, n.Args[0], info.TypeOf(n.Fun), site)
				return true
			}
			if fn := staticCallee(info, n); fn != nil {
				if !p.Suppressed(n.Pos()) {
					fa.edges = append(fa.edges, callEdge{pos: n.Pos(), fn: fn})
				}
			}
			boxCheckCall(p, info, n, site)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					site(n.Pos(), "composite literal")
					// visit the literal's element expressions but not the
					// literal itself (already accounted for)
					for _, el := range n.X.(*ast.CompositeLit).Elts {
						ast.Inspect(el, walk)
					}
					return false
				}
			}
		case *ast.CompositeLit:
			switch typeUnder(info.TypeOf(n)).(type) {
			case *types.Slice:
				if len(n.Elts) > 0 {
					site(n.Pos(), "composite literal")
				}
			case *types.Map:
				site(n.Pos(), "composite literal")
			}
		case *ast.GoStmt:
			site(n.Pos(), "goroutine spawn")
		case *ast.FuncLit:
			if !safeLit[n] && capturesOuter(info, n) {
				site(n.Pos(), "escaping closure")
			}
		case *ast.AssignStmt:
			trackNilSlices(info, n, nilSlice, markNil, func(pos token.Pos) {
				site(pos, "append to a nil-origin slice")
			})
		case *ast.ValueSpec:
			if len(n.Values) == 0 {
				for _, name := range n.Names {
					if obj := info.Defs[name]; obj != nil {
						if _, ok := typeUnder(obj.Type()).(*types.Slice); ok {
							nilSlice[obj] = true
						}
					}
				}
			}
		case *ast.ReturnStmt:
			boxCheckReturn(p, info, fa.decl.Type, n, site)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// trackNilSlices follows nil-origin slices through assignments: the first
// append to one is an allocation with no other visible site.
func trackNilSlices(info *types.Info, n *ast.AssignStmt, nilSlice map[types.Object]bool, markNil func(*ast.Ident, bool), flag func(token.Pos)) {
	if len(n.Lhs) != len(n.Rhs) {
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
				markNil(id, false)
			}
		}
		return
	}
	for i, lhs := range n.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		rhs := ast.Unparen(n.Rhs[i])
		switch r := rhs.(type) {
		case *ast.Ident:
			markNil(id, r.Name == "nil")
		case *ast.CompositeLit:
			_, isSlice := typeUnder(info.TypeOf(r)).(*types.Slice)
			markNil(id, isSlice && len(r.Elts) == 0)
		case *ast.CallExpr:
			if b := builtinOf(info, r); b != nil && b.Name() == "append" && len(r.Args) > 0 {
				if aid, ok := ast.Unparen(r.Args[0]).(*ast.Ident); ok {
					if obj := info.ObjectOf(aid); obj != nil && nilSlice[obj] {
						flag(n.Pos())
					}
				}
			}
			markNil(id, false)
		default:
			markNil(id, false)
		}
	}
}

// boxCheckCall flags non-pointer-shaped concrete arguments converted to
// interface parameters: each such conversion heap-allocates the boxed copy.
func boxCheckCall(p *Pass, info *types.Info, call *ast.CallExpr, site func(token.Pos, string)) {
	sig, ok := typeUnder(info.TypeOf(call.Fun)).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				pt = sig.Params().At(sig.Params().Len() - 1).Type()
			} else if last := sig.Params().At(sig.Params().Len() - 1); last != nil {
				if sl, ok := last.Type().(*types.Slice); ok {
					pt = sl.Elem()
				}
			}
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		}
		if pt != nil {
			boxCheck(p, info, arg, pt, site)
		}
	}
}

// boxCheckReturn flags concrete values returned through interface-typed
// results of the enclosing declaration.
func boxCheckReturn(p *Pass, info *types.Info, ft *ast.FuncType, ret *ast.ReturnStmt, site func(token.Pos, string)) {
	if ft.Results == nil || len(ret.Results) == 0 {
		return
	}
	var resTypes []types.Type
	for _, field := range ft.Results.List {
		t := info.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			resTypes = append(resTypes, t)
		}
	}
	if len(ret.Results) != len(resTypes) {
		return // single call expanding to multiple results
	}
	for i, res := range ret.Results {
		boxCheck(p, info, res, resTypes[i], site)
	}
}

// boxCheck flags expr when assigning it to target requires boxing a
// non-pointer-shaped concrete value into an interface.
func boxCheck(p *Pass, info *types.Info, expr ast.Expr, target types.Type, site func(token.Pos, string)) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Value != nil || tv.IsNil() { // constants and nil are interned
		return
	}
	at := tv.Type
	if at == nil || types.IsInterface(at) || pointerShaped(at) {
		return
	}
	site(expr.Pos(), "interface conversion")
}

// pointerShaped reports whether values of t fit the interface data word
// without a heap copy.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// capturesOuter reports whether the literal references a variable declared
// outside itself (excluding package-level variables, which need no closure
// context).
func capturesOuter(info *types.Info, fl *ast.FuncLit) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := info.ObjectOf(id).(*types.Var); ok {
			if v.Pos() < fl.Pos() && !isPackageLevel(v) && !v.IsField() {
				found = true
			}
		}
		return true
	})
	return found
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// staticCallee resolves a call to the *types.Func it statically invokes:
// package functions, qualified functions, and concrete methods. Interface
// methods and func-typed values return nil (dynamic dispatch).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil // func-typed field: dynamic
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				if types.IsInterface(sel.Recv()) {
					return nil // dynamic dispatch
				}
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn // qualified package function
		}
	}
	return nil
}

func builtinOf(info *types.Info, call *ast.CallExpr) *types.Builtin {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b
		}
	}
	return nil
}

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func stdlibKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

func shortPos(p *Pass, pos token.Pos) string {
	position := p.Pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(position.Filename), position.Line)
}
