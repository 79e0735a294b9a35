package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// checkCtxLoop encodes the lost-wakeup bug class fixed by hand twice in
// PR 7 (mixer.AdmitWait, pipeline.RunStreamsCtx): a function that
// accepts a context.Context and then waits in a loop — a blocking
// receive, a select without default, a backoff retry through a
// may-block callee — must consult the context on every iteration, via a
// ctx.Err() call or a <-ctx.Done() select case inside the loop.
// Otherwise a canceled caller is stranded: the wait can persist
// arbitrarily long after the caller has given up, holding whatever
// budget or lease the loop was retrying for.
//
// The "every iteration path" requirement is approximated
// flow-insensitively: the loop's subtree must contain at least one
// consultation. A consultation hidden behind an if that skips it on
// some path still satisfies the check; the reverse error — flagging a
// loop whose first statement is ctx.Err() — does not happen. Goroutines
// spawned inside the loop are excluded from both sides: their waits and
// their consultations belong to their own spawn site (goroutinelife's
// jurisdiction). Not suppressible: a loop that waits without watching
// its context has no safe justification under cancellation.
func checkCtxLoop(ix *funcIndex) []finding {
	var ds []finding
	for _, fd := range ix.funcs {
		if !hasContextParam(fd.fn) {
			continue
		}
		ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				return false
			}
			var loop ast.Node
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loop = n
			default:
				return true
			}
			reason := loopBlockReason(fd.p, ix, loop)
			if reason == "" || loopConsultsCtx(fd.p, loop) {
				return true
			}
			ds = append(ds, finding{d: Diagnostic{
				Pos:   nodeLine(fd.p.Fset, loop),
				Check: CheckCtxLoop,
				Message: fmt.Sprintf("%s takes a context but this loop %s without consulting it; a canceled caller is stranded — call ctx.Err() or select on <-ctx.Done() each iteration",
					fd.fn.Name(), reason),
			}})
			return true
		})
	}
	return ds
}

// hasContextParam reports whether fn's signature takes a
// context.Context parameter.
func hasContextParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// loopBlockReason returns the first reason the loop's subtree may wait
// ("" if it provably cannot): a direct blocking construct, or a call to
// a function in the module's mayBlock closure.
func loopBlockReason(p *Package, ix *funcIndex, loop ast.Node) string {
	reason := ""
	scanBlocking(p, loop, func(n ast.Node, what string) {
		if reason == "" {
			reason = what
		}
	}, func(call *ast.CallExpr) {
		if reason != "" {
			return
		}
		if callee := resolveCallee(p, call, ix.inModule); callee != nil {
			if why := ix.blocks[callee]; why != "" {
				reason = fmt.Sprintf("calls %s, which may block (%s)", callee.Name(), why)
			}
		}
	})
	return reason
}

// loopConsultsCtx reports whether the loop's subtree (goroutine spawns
// excluded) calls Err or Done on a context-typed value — the two shapes
// a cancellation check can take.
func loopConsultsCtx(p *Package, loop ast.Node) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Err" && sel.Sel.Name != "Done") {
			return true
		}
		if tv, ok := p.Info.Types[sel.X]; ok && isContextType(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}
