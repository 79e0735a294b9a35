package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// This file holds the may-block closure the concurrency-liveness
// checks (blockunderlock, ctxloop, goroutinelife) share — the direct
// blocking constructs, their transitive closure over the static call
// graph, and the sync.Cond → guarding-mutex association — plus the
// blockunderlock visitor of the held-lock walk.

// buildBlocking computes the module's blocking closure once. Direct
// reasons and call edges skip everything under a go statement: the
// spawn itself never blocks the spawner (goroutinelife owns the
// spawned body). Non-spawned function literals are attributed to their
// defining function — deferred closures and callbacks overwhelmingly
// run in the caller, which is the conservative reading.
func (ix *funcIndex) buildBlocking() {
	ix.blocks = make(map[*types.Func]string)
	ix.condMu = make(map[*types.Var]*types.Var)
	calls := make(map[*types.Func][]*types.Func)
	for _, f := range ix.funcs {
		scanBlocking(f.p, f.decl.Body, func(n ast.Node, what string) {
			if ix.blocks[f.fn] == "" {
				ix.blocks[f.fn] = what
			}
		}, func(call *ast.CallExpr) {
			if callee := resolveCallee(f.p, call, ix.inModule); callee != nil {
				calls[f.fn] = append(calls[f.fn], callee)
			}
		})
		ix.scanCondAssoc(f.p, f.decl.Body)
	}
	ix.fixpoint(calls, func(caller, callee *types.Func) bool {
		if ix.blocks[caller] != "" || ix.blocks[callee] == "" {
			return false
		}
		ix.blocks[caller] = fmt.Sprintf("calls %s, which may block", callee.Name())
		return true
	})
}

// scanBlocking walks body emitting every directly-blocking construct —
// channel send/receive, select without default, range over a channel,
// and the blocking stdlib calls — and hands every call expression to
// onCall for call-graph recording. Subtrees under go statements are
// skipped entirely; the comm clauses of every select are skipped too
// (the select node itself carries the blocking report, and comm
// receives under a default-carrying select never block).
func scanBlocking(p *Package, body ast.Node, emit func(n ast.Node, what string), onCall func(*ast.CallExpr)) {
	skip := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					skip[cc.Comm] = true
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if skip[n] {
			return false
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SendStmt:
			emit(x, "sends on a channel")
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				emit(x, "receives from a channel")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(x) {
				emit(x, "blocks in a select with no default case")
			}
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					emit(x, "receives from a channel (range)")
				}
			}
		case *ast.CallExpr:
			if what := stdlibBlockingCall(p, x); what != "" {
				emit(x, what)
			}
			onCall(x)
		}
		return true
	})
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// stdlibBlockingCall classifies the blocking standard-library calls:
// time.Sleep, sync.WaitGroup.Wait, sync.Cond.Wait, and anything in net
// or net/* (dials, reads, serves — all of them park the goroutine).
// Mutex Lock/Unlock are deliberately excluded: lock acquisition order
// is mixerlock's and lockorder's jurisdiction, and double-reporting it
// here would drown the real waits.
func stdlibBlockingCall(p *Package, call *ast.CallExpr) string {
	fn := resolveCallee(p, call, nil)
	if fn == nil {
		return ""
	}
	switch path := fn.Pkg().Path(); {
	case path == "time" && fn.Name() == "Sleep":
		return "calls time.Sleep"
	case path == "sync" && fn.Name() == "Wait" && recvTypeName(fn) == "WaitGroup":
		return "calls sync.WaitGroup.Wait"
	case path == "sync" && fn.Name() == "Wait" && recvTypeName(fn) == "Cond":
		return "calls sync.Cond.Wait"
	case path == "net" || strings.HasPrefix(path, "net/"):
		return fmt.Sprintf("performs network I/O (%s.%s)", path, fn.Name())
	}
	return ""
}

// recvTypeName returns the name of fn's receiver type ("" for plain
// functions), pointer receivers unwrapped.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// scanCondAssoc records sync.NewCond(&mu) constructions whose result is
// assigned to an identifier or field, so Cond.Wait sites can be checked
// against the mutex that actually guards the condition. A cond built
// through any other shape (composite literal field, function return)
// stays unassociated, and unassociated Waits are not reported — silence
// over a false deadlock accusation.
func (ix *funcIndex) scanCondAssoc(p *Package, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			fn := resolveCallee(p, call, nil)
			if fn == nil || fn.Pkg().Path() != "sync" || fn.Name() != "NewCond" || len(call.Args) != 1 {
				continue
			}
			arg := call.Args[0]
			if un, ok := arg.(*ast.UnaryExpr); ok && un.Op.String() == "&" {
				arg = un.X
			}
			mu := referencedVar(p, arg)
			cond := referencedVar(p, as.Lhs[i])
			if mu != nil && cond != nil {
				ix.condMu[cond] = mu
			}
		}
		return true
	})
}

// blockUnderLock is the module-wide no-blocking-under-a-mutex check:
// while any sync.Mutex/RWMutex is held, no potentially-blocking
// operation may run — a channel send or receive, a select without a
// default case, sync.WaitGroup.Wait, time.Sleep, network I/O, a
// Cond.Wait on a condition guarded by a *different* mutex, or a call
// into the transitive mayBlock closure (AdmitWait and friends). A
// holder parked on any of these stalls every contender for the mutex
// for an unbounded time; under the paper's hard-deadline contract that
// is a missed deadline waiting to happen. The finding names the
// first-acquired held mutex and its mode: blocking under an RLock
// stalls writers, under a Lock it stalls everyone. Mutexes without a
// variable identity are not tracked. Not suppressible: there is no
// safe amount of unbounded waiting inside a critical section.
type blockUnderLock struct {
	ix *funcIndex
	ds []finding
}

func (b *blockUnderLock) acquire(*heldWalk, *ast.CallExpr, heldLock) {}

func (b *blockUnderLock) blocking(w *heldWalk, n ast.Node, what string) {
	for _, h := range w.held {
		if h.v != nil {
			b.ds = append(b.ds, w.report(n, CheckBlockUnderLock, fmt.Sprintf(
				"%s %s while holding %s (%s-locked); a parked holder stalls every contender for the mutex",
				w.f.fn.Name(), what, h.path, h.mode())))
			return
		}
	}
}

// callHeld classifies one call made while locks are held: Cond.Wait
// with a known guard association, a blocking stdlib call, or a module
// call in the mayBlock closure.
func (b *blockUnderLock) callHeld(w *heldWalk, call *ast.CallExpr) {
	what := stdlibBlockingCall(w.f.p, call)
	if what == "calls sync.Cond.Wait" {
		// Cond.Wait atomically releases the cond's own mutex while
		// parked, so waiting under that mutex is the intended pattern.
		// Waiting while a *different* mutex is held keeps that one
		// locked for the whole wait. An unassociated cond stays silent
		// rather than accuse.
		var guard *types.Var
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if cv := referencedVar(w.f.p, sel.X); cv != nil {
				guard = b.ix.condMu[cv]
			}
		}
		for _, h := range w.held {
			if guard != nil && h.v != nil && h.v != guard {
				b.ds = append(b.ds, w.report(call, CheckBlockUnderLock, fmt.Sprintf(
					"%s calls Cond.Wait (guarded by %s) while holding %s (%s-locked); the wait never releases %s",
					w.f.fn.Name(), guard.Name(), h.path, h.mode(), h.path)))
				return
			}
		}
		return
	}
	if callee := resolveCallee(w.f.p, call, b.ix.inModule); what == "" && callee != nil && b.ix.blocks[callee] != "" {
		what = fmt.Sprintf("calls %s, which may block (%s)", callee.Name(), b.ix.blocks[callee])
	}
	if what != "" {
		b.blocking(w, call, what)
	}
}
