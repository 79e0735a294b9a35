package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds the held-lock engine behind the three lock checks —
// mixerlock (below), lockorder (lockorder.go) and blockunderlock
// (block.go). One walk per function tracks which mutexes are held, in
// source order: a deferred release holds to function end, branch and
// case bodies are walked on a copy of the held set (a branch's lock
// state does not leak past it, so the common Lock-then-branch-Unlock-
// return shape keeps the outer lock held, the conservative reading),
// goroutine bodies and function literals are not walked under the
// caller's locks (a literal runs under its eventual caller's locks),
// but a go statement's function value and arguments are, since the
// spawner evaluates them. Each check is a lockVisitor the walk calls
// at every event.

// lockVisitor receives the held-lock walk's events for one function.
type lockVisitor interface {
	// acquire sees a Lock or RLock call before h joins w.held.
	acquire(w *heldWalk, call *ast.CallExpr, h heldLock)
	// blocking sees a channel send or receive, a select with no
	// default case, or a range over a channel while w.held is
	// non-empty.
	blocking(w *heldWalk, n ast.Node, what string)
	// callHeld sees every other call made while w.held is non-empty.
	callHeld(w *heldWalk, call *ast.CallExpr)
}

// checkLocks runs mixerlock, lockorder and blockunderlock as visitors
// of one held-lock walk per function.
func checkLocks(ix *funcIndex) []finding {
	ml, lo, bu := newMixerLock(ix), newLockOrder(ix), &blockUnderLock{ix: ix}
	visitors := []lockVisitor{ml, lo, bu}
	for _, f := range ix.funcs {
		w := &heldWalk{f: f, visitors: visitors}
		w.stmt(f.decl.Body)
	}
	return append(append(ml.ds, lo.findings()...), bu.ds...)
}

// lockOp is the exact lock operation of a call: write and read
// acquires are distinct kinds, as are their releases.
type lockOp int

const (
	opNone lockOp = iota
	opLock
	opRLock
	opUnlock
	opRUnlock
)

// lockCallKind classifies call as one of Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex value, and returns the textual path of the
// mutex (e.g. "b.mu") for matching within one function.
func lockCallKind(p *Package, call *ast.CallExpr) (lockOp, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return opNone, ""
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op = opRUnlock
	default:
		return opNone, ""
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok || !isSyncMutex(tv.Type) {
		return opNone, ""
	}
	return op, exprPath(sel.X)
}

func isSyncMutex(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// exprPath renders a selector chain like g.b.mu; unknown shapes get a
// stable fallback so they still participate in held-state tracking.
func exprPath(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprPath(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprPath(x.X)
	case *ast.StarExpr:
		return exprPath(x.X)
	}
	return "<expr>"
}

// heldLock is one entry of the walk's held set: the mutex identity
// (the struct field or variable; nil when the receiver is something
// exotic, like a map element or a call result), the textual path it
// was acquired through, and the mode.
type heldLock struct {
	v     *types.Var
	path  string
	write bool
}

func (h heldLock) mode() string {
	if h.write {
		return "write"
	}
	return "read"
}

// mutexVar resolves the variable identity of the mutex a lock call
// operates on, or nil.
func mutexVar(p *Package, call *ast.CallExpr) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return referencedVar(p, sel.X)
}

// heldWalk walks one function body, keeping the held set in held.
type heldWalk struct {
	f        *funcInfo
	held     []heldLock
	visitors []lockVisitor
}

func (w *heldWalk) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

// scoped walks s on a copy of the held set.
func (w *heldWalk) scoped(s ast.Stmt) {
	saved := w.held
	w.held = append([]heldLock(nil), saved...)
	w.stmt(s)
	w.held = saved
}

func (w *heldWalk) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(st.List)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
	case *ast.IfStmt:
		w.stmt(st.Init)
		w.expr(st.Cond)
		w.scoped(st.Body)
		w.scoped(st.Else)
	case *ast.ForStmt:
		w.stmt(st.Init)
		w.expr(st.Cond)
		w.scoped(st.Body)
	case *ast.RangeStmt:
		if tv, ok := w.f.p.Info.Types[st.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.blocking(st, "receives from a channel (range)")
			}
		}
		w.expr(st.X)
		w.scoped(st.Body)
	case *ast.SwitchStmt:
		w.stmt(st.Init)
		w.expr(st.Tag)
		w.clauses(st.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init)
		w.stmt(st.Assign)
		w.clauses(st.Body)
	case *ast.SelectStmt:
		if !selectHasDefault(st) {
			w.blocking(st, "blocks in a select with no default case")
		}
		w.clauses(st.Body)
	case *ast.CaseClause:
		for _, e := range st.List {
			w.expr(e)
		}
		w.stmts(st.Body)
	case *ast.CommClause:
		// The communication itself is the select's: reported there when
		// the select can block, and non-blocking under a default case.
		w.stmts(st.Body)
	case *ast.GoStmt:
		// The spawner evaluates the function value and the arguments;
		// the call itself runs on the new goroutine, lock-free.
		w.expr(st.Call.Fun)
		for _, arg := range st.Call.Args {
			w.expr(arg)
		}
	case *ast.DeferStmt:
		// A deferred release holds the lock to function end: no state
		// change. Any other deferred call is treated as running under
		// the current held set, the conservative reading.
		if op, _ := lockCallKind(w.f.p, st.Call); op == opNone {
			w.expr(st.Call)
		}
	case *ast.SendStmt:
		w.blocking(st, "sends on a channel")
		w.expr(st)
	default: // expression, assignment, declaration, inc/dec, return, branch
		w.expr(st)
	}
}

func (w *heldWalk) clauses(body *ast.BlockStmt) {
	for _, c := range body.List {
		w.scoped(c)
	}
}

// expr applies the lock transitions and raises the events inside one
// expression (or simple statement), in evaluation order.
func (w *heldWalk) expr(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.blocking(x, "receives from a channel")
			}
		case *ast.CallExpr:
			switch op, path := lockCallKind(w.f.p, x); op {
			case opLock, opRLock:
				h := heldLock{v: mutexVar(w.f.p, x), path: path, write: op == opLock}
				for _, v := range w.visitors {
					v.acquire(w, x, h)
				}
				w.held = append(w.held, h)
				return false
			case opUnlock, opRUnlock:
				for i := len(w.held) - 1; i >= 0; i-- {
					if w.held[i].path == path && w.held[i].write == (op == opUnlock) {
						w.held = append(w.held[:i:i], w.held[i+1:]...)
						break
					}
				}
				return false
			}
			if len(w.held) > 0 {
				for _, v := range w.visitors {
					v.callHeld(w, x)
				}
			}
		}
		return true
	})
}

func (w *heldWalk) blocking(n ast.Node, what string) {
	if len(w.held) > 0 {
		for _, v := range w.visitors {
			v.blocking(w, n, what)
		}
	}
}

// report builds a non-suppressible finding at n in the walked function.
func (w *heldWalk) report(n ast.Node, check, msg string) finding {
	return finding{d: Diagnostic{Pos: nodeLine(w.f.p.Fset, n), Check: check, Message: msg}}
}

// mixerLock is the intra-package lock-discipline check: no function
// may call — directly or transitively through same-package helpers — a
// function that acquires a sync.Mutex/RWMutex while the caller already
// holds one. The shared-budget mixer enforces this only by comment
// discipline ("callers hold b.mu"); this makes the discipline
// mechanical. Re-locking a mutex already held in the same function is
// reported too, with read locks (RLock) tracked as a distinct acquire
// kind from write locks: a recursive RLock deadlocks as soon as a
// writer queues between the two, and an RLock taken while the write
// lock is held never returns. The remaining cross-kind hazard —
// upgrading RLock to Lock on the same mutex — is lockorder's job.
//
// It is deliberately conservative about identity: while any mutex is
// held, calling any same-package function that may acquire any mutex
// is reported, which is exact for single-mutex packages like the mixer
// and errs on the loud side elsewhere.
type mixerLock struct {
	may map[*types.Func]bool // same-package may-acquire closure
	ds  []finding
}

func newMixerLock(ix *funcIndex) *mixerLock {
	m := &mixerLock{may: make(map[*types.Func]bool)}
	calls := make(map[*types.Func][]*types.Func)
	for _, f := range ix.funcs {
		for _, call := range f.calls {
			if op, _ := lockCallKind(f.p, call); op == opLock || op == opRLock {
				m.may[f.fn] = true
			}
			if callee := resolveCallee(f.p, call, f.p.owns); callee != nil {
				calls[f.fn] = append(calls[f.fn], callee)
			}
		}
	}
	ix.fixpoint(calls, func(caller, callee *types.Func) bool {
		if m.may[caller] || !m.may[callee] {
			return false
		}
		m.may[caller] = true
		return true
	})
	return m
}

func (m *mixerLock) acquire(w *heldWalk, call *ast.CallExpr, h heldLock) {
	var write, read bool
	for _, o := range w.held {
		if o.path == h.path {
			write, read = write || o.write, read || !o.write
		}
	}
	owner := w.f.fn.Name()
	var msg string
	switch {
	case write && h.write:
		msg = fmt.Sprintf("%s locks %s, which it already holds", owner, h.path)
	case write:
		msg = fmt.Sprintf("%s read-locks %s while write-holding it; RWMutex is not reentrant", owner, h.path)
	case read && !h.write:
		msg = fmt.Sprintf("%s read-locks %s, which it already read-holds; a writer queued between the two RLocks deadlocks", owner, h.path)
	default:
		return
	}
	m.ds = append(m.ds, w.report(call, CheckMixerLock, msg))
}

func (m *mixerLock) blocking(*heldWalk, ast.Node, string) {}

func (m *mixerLock) callHeld(w *heldWalk, call *ast.CallExpr) {
	callee := resolveCallee(w.f.p, call, w.f.p.owns)
	if callee == nil || !m.may[callee] {
		return
	}
	// Name the smallest held path, deterministically; one mutex is the
	// overwhelmingly common case.
	held := w.held[0].path
	for _, o := range w.held[1:] {
		held = min(held, o.path)
	}
	m.ds = append(m.ds, w.report(call, CheckMixerLock, fmt.Sprintf(
		"%s calls %s while holding %s; %s acquires a mutex — potential self-deadlock",
		w.f.fn.Name(), callee.Name(), held, callee.Name())))
}
