package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// checkGoroutineLife demands a provable termination story for every go
// statement in the module: a goroutine that can outlive its purpose is
// a leak, and a leaked reaper or waiter holds budget references and
// wakes timers forever — the failure mode the qosd reaper/drain
// triangle flirts with. A spawn passes when its body satisfies one of:
//
//   - joined: the body calls (*sync.WaitGroup).Done, so a Wait visible
//     to the spawner bounds its life;
//   - bounded: every loop in the body either ranges over a non-channel
//     (finite) or carries a loop condition, so the body runs off its
//     own end;
//   - signalled: every unbounded (for {}) loop either ranges over a
//     channel (a close terminates it) or contains an exit signal — a
//     select receive case whose body returns or breaks (the
//     <-ctx.Done() / close-only stop-channel shape), or a ctx.Err()
//     consultation.
//
// A go statement whose callee cannot be resolved statically (an
// interface method, a function value from elsewhere) is reported too:
// the analysis cannot see the body, so the spawner must either inline a
// literal, name a module function, or justify the spawn.
//
// Unlike the other concurrency checks this one is suppressible —
// //qos:goroutine-ok <reason> on the go statement's line or the line
// above — because process-lifetime goroutines (a metrics flusher that
// dies with main) are a legitimate design, but one that must be argued,
// not silent. Test files never reach this check: LoadModule skips
// _test.go.
func checkGoroutineLife(ix *funcIndex) []finding {
	var ds []finding
	for _, fd := range ix.funcs {
		ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			pos := nodeLine(fd.p.Fset, g)
			body, desc := goBody(fd.p, ix, g)
			if body == nil {
				ds = append(ds, goFinding(pos, fmt.Sprintf(
					"goroutine body (%s) is not statically resolvable, so no termination signal can be proved", desc)))
				return true
			}
			if callsWaitGroupDone(fd.p, body) {
				return true // joined: the spawner's Wait bounds its life
			}
			if bad := firstUnprovenLoop(fd.p, body); bad != nil {
				ds = append(ds, goFinding(pos, fmt.Sprintf(
					"goroutine %s loops forever (line %d) with no exit signal — no ctx.Done()/stop-channel select, no WaitGroup join",
					desc, fd.p.Fset.Position(bad.Pos()).Line)))
			}
			return true
		})
	}
	return ds
}

func goFinding(pos token.Position, msg string) finding {
	return finding{
		d:        Diagnostic{Pos: pos, Check: CheckGoroutineLife, Message: msg},
		suppress: annGoroutineOK,
	}
}

// goBody resolves the body a go statement runs: a function literal's
// own body, or the declaration of a module function named directly.
// Returns nil (with a description of the shape) when neither applies.
func goBody(p *Package, ix *funcIndex, g *ast.GoStmt) (*ast.BlockStmt, string) {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		return lit.Body, "func literal"
	}
	if callee := resolveCallee(p, g.Call, ix.inModule); callee != nil {
		if mf := ix.byObj[callee]; mf != nil {
			return mf.decl.Body, callee.Name()
		}
		return nil, callee.Name() + " has no body in this module"
	}
	return nil, exprPath(g.Call.Fun)
}

// callsWaitGroupDone reports whether body calls (*sync.WaitGroup).Done
// outside nested spawns — the join discipline: a Done visible in the
// body pairs with a Wait at or above the spawn site.
func callsWaitGroupDone(p *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
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
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); ok &&
			fn.Pkg() != nil && fn.Pkg().Path() == "sync" && recvTypeName(fn) == "WaitGroup" {
			found = true
			return false
		}
		return true
	})
	return found
}

// firstUnprovenLoop returns the first loop in body (nested spawns
// excluded) that neither terminates on its own nor carries an exit
// signal, or nil when every loop is provably bounded or signalled.
func firstUnprovenLoop(p *Package, body *ast.BlockStmt) ast.Node {
	var bad ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		switch loop := n.(type) {
		case *ast.GoStmt:
			return false // a nested spawn is checked at its own go statement
		case *ast.RangeStmt:
			// Ranging over a channel terminates when the sender closes
			// it — the close-only-channel signal. Any other range is
			// finite by construction.
			return true
		case *ast.ForStmt:
			if loop.Cond != nil {
				return true // carries its own termination condition
			}
			if !loopHasExitSignal(p, loop) {
				bad = loop
				return false
			}
		}
		return true
	})
	return bad
}

// loopHasExitSignal reports whether an unconditional for {} loop
// contains a recognized exit shape: a select receive case whose body
// returns or breaks (the <-ctx.Done() / stop-channel idiom), or a
// ctx.Err() call (assumed to gate a return).
func loopHasExitSignal(p *Package, loop *ast.ForStmt) bool {
	found := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				if _, isSend := cc.Comm.(*ast.SendStmt); isSend {
					continue
				}
				if bodyExits(cc.Body) {
					found = true
					return false
				}
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Err" {
				if tv, ok := p.Info.Types[sel.X]; ok && isContextType(tv.Type) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// bodyExits reports whether a statement list contains a return or an
// unlabeled break at its top structural level (nested loops and spawns
// excluded — a break inside an inner loop does not exit this one).
func bodyExits(stmts []ast.Stmt) bool {
	exits := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if exits {
				return false
			}
			switch x := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt, *ast.GoStmt, *ast.FuncLit, *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
				return false
			case *ast.ReturnStmt:
				exits = true
				return false
			case *ast.BranchStmt:
				if x.Tok == token.BREAK {
					exits = true
					return false
				}
			}
			return true
		})
	}
	return exits
}
