package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// hotpathMarker marks a function declaration as a decision-path root
// when it appears as a line of the doc comment:
//
//	//qos:hotpath
//	func (c *Controller) Next(t Cycles) (Action, bool) { ... }
//
// It is a marker, not an annotation: it takes no reason and suppresses
// nothing.
const hotpathMarker = "qos:hotpath"

// checkHotAlloc makes the decision path's 0 allocs/op contract static.
// Every function whose doc comment carries //qos:hotpath is a root; the
// check walks the intra-module static call graph from the roots and
// reports each allocating construct in a reachable function:
//
//   - composite literals that escape (&T{}) and slice/map literals
//   - new and make
//   - append (may grow), map assignment (may rehash)
//   - function literals that capture variables (the closure and its
//     captures move to the heap)
//   - interface boxing of non-pointer-shaped values, at explicit
//     conversions and at call arguments
//   - variadic calls passing a non-empty argument list (the ...args
//     slice is allocated per call — the fmt idiom)
//   - string concatenation and string<->[]byte/[]rune/rune conversions
//   - defer inside a loop (each iteration grows the defer chain)
//
// A finding is suppressed by //qos:alloc-ok <reason> on its line or the
// line above. An alloc-ok on a *call* line instead justifies the call
// edge: the callee's subtree is not walked through that edge, so one
// reasoned annotation covers a deliberately-cold branch (error
// construction, a documented slow path) without annotating every line
// inside it.
//
// Dynamic dispatch is the known hole: an interface method call has no
// static callee, so the walk stops there. That is why both Evaluator
// MaxAdmissibleLevel implementations are roots themselves rather than
// being reached through Controller.Next's evaluator call.
func checkHotAlloc(ix *funcIndex, ann *annotations) []finding {
	// Static call edges to declared module functions, in source order,
	// with positions (for alloc-ok edge pruning).
	type edge struct {
		callee *funcInfo
		pos    token.Position
	}
	edges := make(map[*funcInfo][]edge, len(ix.funcs))
	for _, f := range ix.funcs {
		for _, call := range f.calls {
			if callee := ix.byObj[resolveCallee(f.p, call, ix.inModule)]; callee != nil {
				edges[f] = append(edges[f], edge{callee, nodeLine(f.p.Fset, call)})
			}
		}
	}

	// occupied marks lines that carry a module call or an allocating
	// construct; an annotation on such a line binds there and cannot
	// drift down to justify the next line's edge (the same one-line
	// binding rule resolve applies to findings).
	occupied := make(map[string]map[int]bool)
	occupy := func(pos token.Position) {
		m := occupied[pos.Filename]
		if m == nil {
			m = make(map[int]bool)
			occupied[pos.Filename] = m
		}
		m[pos.Line] = true
	}
	for _, f := range ix.funcs {
		for _, e := range edges[f] {
			occupy(e.pos)
		}
		for _, a := range scanAllocs(f.p, f.decl.Body, "") {
			occupy(a.d.Pos)
		}
	}
	justified := func(pos token.Position) bool {
		if a := ann.allocOKAt(pos.Filename, pos.Line); a != nil {
			a.used, a.edgeLine = true, pos.Line
			return true
		}
		if a := ann.allocOKAt(pos.Filename, pos.Line-1); a != nil && !occupied[pos.Filename][pos.Line-1] {
			a.used, a.edgeLine = true, pos.Line
			return true
		}
		return false
	}

	// Roots, then BFS. reachedFrom records the first root that reached
	// each function, for the messages.
	reachedFrom := make(map[*funcInfo]string)
	var queue []*funcInfo
	for _, f := range ix.funcs {
		if hasHotpathMarker(f.decl.Doc) {
			reachedFrom[f] = funcDisplayName(f.fn)
			queue = append(queue, f)
		}
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, e := range edges[f] {
			// A justified edge is pruned even when the callee is reachable
			// elsewhere: the annotation owns this call site.
			if justified(e.pos) {
				continue
			}
			if _, ok := reachedFrom[e.callee]; ok {
				continue
			}
			reachedFrom[e.callee] = reachedFrom[f]
			queue = append(queue, e.callee)
		}
	}

	var ds []finding
	for _, f := range ix.funcs {
		if root, hot := reachedFrom[f]; hot {
			ds = append(ds, scanAllocs(f.p, f.decl.Body, root)...)
		}
	}
	return ds
}

// hasHotpathMarker reports whether a doc comment group contains a
// //qos:hotpath line.
func hasHotpathMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if text := trimCommentMarker(c.Text); text == hotpathMarker {
			return true
		}
	}
	return false
}

func trimCommentMarker(text string) string {
	if len(text) >= 2 && text[:2] == "//" {
		text = text[2:]
	}
	for len(text) > 0 && (text[0] == ' ' || text[0] == '\t') {
		text = text[1:]
	}
	for len(text) > 0 && (text[len(text)-1] == ' ' || text[len(text)-1] == '\t') {
		text = text[:len(text)-1]
	}
	return text
}

// funcDisplayName renders fn for messages: Name for functions,
// (Recv).Name for methods.
func funcDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	ptr := false
	if p, isPtr := t.(*types.Pointer); isPtr {
		t, ptr = p.Elem(), true
	}
	name := "?"
	if named, isNamed := types.Unalias(t).(*types.Named); isNamed {
		name = named.Obj().Name()
	}
	if ptr {
		return fmt.Sprintf("(*%s).%s", name, fn.Name())
	}
	return fmt.Sprintf("(%s).%s", name, fn.Name())
}

// scanAllocs reports every allocating construct in body.
func scanAllocs(p *Package, body *ast.BlockStmt, root string) []finding {
	var ds []finding
	flag := func(n ast.Node, what string) {
		ds = append(ds, finding{suppress: annAllocOK, d: Diagnostic{
			Pos:   nodeLine(p.Fset, n),
			Check: CheckHotAlloc,
			Message: fmt.Sprintf("%s on the hot path (reachable from %s); fix it or annotate //qos:alloc-ok <reason>",
				what, root),
		}})
	}
	inspectWithStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			if parent, _ := effectiveParent(stack); parent != nil {
				if un, ok := parent.(*ast.UnaryExpr); ok && un.Op == token.AND {
					flag(parent, "escaping composite literal (&T{})")
					return true
				}
			}
			if tv, ok := p.Info.Types[x]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					flag(x, "slice literal")
				case *types.Map:
					flag(x, "map literal")
				}
			}
		case *ast.CallExpr:
			scanCall(p, x, flag)
		case *ast.FuncLit:
			if v := capturedVar(p, x); v != nil {
				flag(x, fmt.Sprintf("function literal captures %s (closure and captures escape to the heap)", v.Name()))
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && !isConstant(p.Info, x) && isStringType(p.Info, x) {
				flag(x, "string concatenation")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(p.Info, x.Lhs[0]) {
				flag(x, "string concatenation")
			}
			for _, lhs := range x.Lhs {
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					if tv, ok := p.Info.Types[idx.X]; ok {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							flag(lhs, "map assignment (may rehash)")
						}
					}
				}
			}
		case *ast.DeferStmt:
			if deferInLoop(stack) {
				flag(x, "defer inside a loop (defer chain grows per iteration)")
			}
		}
		return true
	})
	return ds
}

// scanCall flags the allocating call shapes: new/make/append builtins,
// allocating conversions, variadic packing, and interface boxing of
// call arguments.
func scanCall(p *Package, call *ast.CallExpr, flag func(ast.Node, string)) {
	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "new":
				flag(call, "new")
			case "make":
				flag(call, "make")
			case "append":
				flag(call, "append (may grow and reallocate)")
			}
			return
		}
	}
	// Conversions.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 || isConstant(p.Info, call) {
			return
		}
		dst := tv.Type.Underlying()
		srcTV, ok := p.Info.Types[call.Args[0]]
		if !ok {
			return
		}
		src := srcTV.Type.Underlying()
		switch {
		case isInterface(dst) && !isInterface(src) && !pointerShaped(src):
			flag(call, fmt.Sprintf("conversion boxes %s into an interface", types.TypeString(srcTV.Type, shortQualifier)))
		case isStringBasic(dst) && (isByteOrRuneSlice(src) || isIntegerBasic(src)):
			flag(call, "conversion to string copies and allocates")
		case isByteOrRuneSlice(dst) && isStringBasic(src):
			flag(call, "conversion from string copies and allocates")
		}
		return
	}
	// Regular calls: variadic packing and argument boxing.
	tv, ok := p.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= sig.Params().Len() {
		flag(call, "variadic call packs its arguments into a slice")
	}
	for i, arg := range call.Args {
		pi := i
		if pi >= sig.Params().Len() {
			pi = sig.Params().Len() - 1
		}
		if pi < 0 {
			continue
		}
		param := sig.Params().At(pi).Type()
		if sig.Variadic() && pi == sig.Params().Len()-1 && call.Ellipsis == token.NoPos {
			if s, ok := param.Underlying().(*types.Slice); ok {
				param = s.Elem()
			}
		}
		if !isInterface(param.Underlying()) {
			continue
		}
		argTV, ok := p.Info.Types[arg]
		if !ok || argTV.Type == nil {
			continue
		}
		at := argTV.Type
		if isInterface(at.Underlying()) || pointerShaped(at.Underlying()) || isUntypedNil(at) {
			continue
		}
		flag(arg, fmt.Sprintf("argument boxes %s into an interface parameter", types.TypeString(at, shortQualifier)))
	}
}

func isInterface(t types.Type) bool {
	_, ok := t.(*types.Interface)
	return ok
}

// pointerShaped reports whether a value of underlying type t fits an
// interface word without an allocation.
func pointerShaped(t types.Type) bool {
	switch t.(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return true
	}
	return false
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func isStringBasic(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isIntegerBasic(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isStringBasic(tv.Type.Underlying())
}

// capturedVar returns one variable lit captures from an enclosing
// function scope (nil when capture-free; capture-free literals compile
// to static functions and do not allocate).
func capturedVar(p *Package, lit *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || !v.Pos().IsValid() {
			return true
		}
		// Declared outside the literal, in some function's local scope
		// (package-level vars are not captures).
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		if v.Parent() == nil || v.Parent() == types.Universe {
			return true
		}
		if p.Pkg != nil && v.Parent() == p.Pkg.Scope() {
			return true
		}
		captured = v
		return false
	})
	return captured
}

// deferInLoop reports whether the statement whose ancestor stack is
// given sits inside a for/range loop of the same function (a FuncLit
// boundary resets the search: a defer in a literal runs per call of the
// literal, not per loop iteration of the definer).
func deferInLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}
