package analysis

import (
	"go/ast"
	"go/types"
)

// funcIndex is the module's function inventory, built once per Analyze
// and shared by every call-graph check: each declared function with a
// body, in deterministic (package, file, source) order — map iteration
// over functions would make fixpoints and finding order
// nondeterministic — plus the may-block closure and the sync.Cond
// guards the liveness checks share (block.go).
type funcIndex struct {
	funcs  []*funcInfo
	byObj  map[*types.Func]*funcInfo
	pkgSet map[*types.Package]bool
	// blocks maps a function to the one-line reason it may block
	// ("sends on a channel", "calls time.Sleep", "calls AdmitWait,
	// which may block", …); absence means provably non-blocking under
	// the static call graph.
	blocks map[*types.Func]string
	// condMu maps a sync.Cond variable to the mutex variable its L was
	// built from (sync.NewCond(&x.mu) assigned to an ident or field).
	condMu map[*types.Var]*types.Var
}

// funcInfo is one declared function of the module under analysis.
type funcInfo struct {
	p    *Package
	fn   *types.Func
	decl *ast.FuncDecl
	// calls lists every call expression of the body in source order,
	// function literals and go statements included.
	calls []*ast.CallExpr
}

func buildIndex(pkgs []*Package) *funcIndex {
	ix := &funcIndex{
		byObj:  make(map[*types.Func]*funcInfo),
		pkgSet: make(map[*types.Package]bool, len(pkgs)),
	}
	for _, p := range pkgs {
		ix.pkgSet[p.Pkg] = true
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &funcInfo{p: p, fn: fn, decl: fd}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						fi.calls = append(fi.calls, call)
					}
					return true
				})
				ix.funcs = append(ix.funcs, fi)
				ix.byObj[fn] = fi
			}
		}
	}
	ix.buildBlocking()
	return ix
}

// inModule is the package-set filter of the module-wide checks.
func (ix *funcIndex) inModule(q *types.Package) bool { return ix.pkgSet[q] }

// owns is the package-set filter of the per-package checks.
func (p *Package) owns(q *types.Package) bool { return q == p.Pkg }

// resolveCallee resolves call to the function or method it names
// statically, or nil for builtins, conversions and function values.
// in, when non-nil, restricts the result to the packages it accepts.
// An interface method call resolves to the interface's method, which
// has no body in the index, so closures over the call graph stop
// there: dynamic dispatch is the analyzer's known hole.
func resolveCallee(p *Package, call *ast.CallExpr, in func(*types.Package) bool) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || (in != nil && !in(fn.Pkg())) {
		return nil
	}
	return fn
}

// fixpoint propagates a per-function fact up the call graph until it
// is stable: step(caller, callee) merges the callee's fact into the
// caller's and reports whether the caller's fact changed. Callers are
// visited in index order and callees in source order, so a fact that
// keeps the first callee found (the may-block reason) is deterministic.
func (ix *funcIndex) fixpoint(calls map[*types.Func][]*types.Func, step func(caller, callee *types.Func) bool) {
	for changed := true; changed; {
		changed = false
		for _, f := range ix.funcs {
			for _, callee := range calls[f.fn] {
				if step(f.fn, callee) {
					changed = true
				}
			}
		}
	}
}
