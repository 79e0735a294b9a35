package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// lockOrder is the module-wide lock-acquisition-order check. Mutex
// identity is the declared variable (a struct field like Budget.mu, or
// a package-level var), so two instances of the same field are one
// node; edges A→B record "B was acquired while A was held", whether the
// acquisition is textual or hidden behind a (transitively resolved)
// static call anywhere in the module. Two findings come out of the
// graph:
//
//   - cycles: an edge that participates in a cycle (A→B and, somewhere
//     else in the module, B→A) is the ABBA deadlock — two goroutines
//     taking the locks in opposite orders block each other forever.
//     A self-edge (two instances of the same mutex class nested, like
//     transfer(a, b) locking a.mu then b.mu) is the same bug with the
//     roles played by instances.
//   - RLock→Lock upgrades: write-acquiring a mutex whose read lock the
//     path already holds, directly or through a helper. The Lock waits
//     for all readers — including the caller — so it never returns.
//
// Re-acquiring a held mutex through the same path is mixerlock's
// double lock, not an edge. Not suppressible: a lock cycle has no safe
// justification.
type lockOrder struct {
	ix *funcIndex
	// may maps a function to the mutexes it may acquire, directly or
	// through module callees, with the acquire modes (heldWrite,
	// heldRead). Function literals count toward their defining
	// function: a callback that locks is attributed to it, the
	// conservative reading.
	may    map[*types.Func]map[*types.Var]uint8
	pathOf map[*types.Var]string // first path each mutex was locked through
	edges  []*lockEdge           // in discovery order
	seen   map[[2]*types.Var]bool
	ds     []finding // upgrades
}

// Acquire-mode bits of lockOrder.may.
const (
	heldWrite uint8 = 1 << iota
	heldRead
)

type lockEdge struct {
	from, to         *types.Var
	fromPath, toPath string
	pos              token.Position
}

func newLockOrder(ix *funcIndex) *lockOrder {
	lo := &lockOrder{
		ix:     ix,
		may:    make(map[*types.Func]map[*types.Var]uint8),
		pathOf: make(map[*types.Var]string),
		seen:   make(map[[2]*types.Var]bool),
	}
	calls := make(map[*types.Func][]*types.Func)
	for _, f := range ix.funcs {
		for _, call := range f.calls {
			if op, path := lockCallKind(f.p, call); op == opLock || op == opRLock {
				if v := mutexVar(f.p, call); v != nil {
					bits := heldRead
					if op == opLock {
						bits = heldWrite
					}
					lo.addMay(f.fn, v, bits)
					if _, ok := lo.pathOf[v]; !ok {
						lo.pathOf[v] = path
					}
				}
			}
			if callee := resolveCallee(f.p, call, ix.inModule); callee != nil {
				calls[f.fn] = append(calls[f.fn], callee)
			}
		}
	}
	ix.fixpoint(calls, func(caller, callee *types.Func) bool {
		changed := false
		for v, bits := range lo.may[callee] {
			changed = lo.addMay(caller, v, bits) || changed
		}
		return changed
	})
	return lo
}

// addMay records that fn may acquire v in the given modes and reports
// whether that is new.
func (lo *lockOrder) addMay(fn *types.Func, v *types.Var, bits uint8) bool {
	m := lo.may[fn]
	if m == nil {
		m = make(map[*types.Var]uint8)
		lo.may[fn] = m
	}
	if m[v]&bits == bits {
		return false
	}
	m[v] |= bits
	return true
}

func (lo *lockOrder) addEdge(from, to heldLock, pos token.Position) {
	if key := [2]*types.Var{from.v, to.v}; !lo.seen[key] {
		lo.seen[key] = true
		lo.edges = append(lo.edges, &lockEdge{from.v, to.v, from.path, to.path, pos})
	}
}

func (lo *lockOrder) acquire(w *heldWalk, call *ast.CallExpr, h heldLock) {
	if h.v == nil {
		return
	}
	pos := nodeLine(w.f.p.Fset, call)
	for _, o := range w.held {
		switch {
		case o.v == nil:
		case o.v == h.v && o.path == h.path:
			if h.write && !o.write {
				lo.ds = append(lo.ds, w.report(call, CheckLockOrder, fmt.Sprintf(
					"%s upgrades %s from RLock to Lock; the Lock waits for all readers — including this one — and never returns",
					w.f.fn.Name(), h.path)))
			}
		default:
			lo.addEdge(o, h, pos)
		}
	}
}

func (lo *lockOrder) blocking(*heldWalk, ast.Node, string) {}

func (lo *lockOrder) callHeld(w *heldWalk, call *ast.CallExpr) {
	callee := resolveCallee(w.f.p, call, lo.ix.inModule)
	if callee == nil {
		return
	}
	pos := nodeLine(w.f.p.Fset, call)
	for _, o := range w.held {
		if o.v == nil {
			continue
		}
		for v, bits := range lo.may[callee] {
			if v != o.v {
				lo.addEdge(o, heldLock{v: v, path: lo.pathOf[v]}, pos)
			} else if !o.write && bits&heldWrite != 0 {
				lo.ds = append(lo.ds, w.report(call, CheckLockOrder, fmt.Sprintf(
					"%s calls %s while read-holding %s; %s write-locks the same mutex — RLock→Lock upgrade deadlock",
					w.f.fn.Name(), callee.Name(), o.path, callee.Name())))
			}
		}
	}
}

// findings reports the upgrades and every edge on a cycle: a self-edge,
// or an edge A→B where B reaches A.
func (lo *lockOrder) findings() []finding {
	adj := make(map[*types.Var][]*types.Var)
	for _, e := range lo.edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	reaches := func(from, to *types.Var) bool {
		seen := map[*types.Var]bool{from: true}
		for stack := []*types.Var{from}; len(stack) > 0; {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, next := range adj[v] {
				if next == to {
					return true
				}
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}
	ds := lo.ds
	for _, e := range lo.edges {
		var msg string
		switch {
		case e.from == e.to:
			msg = "two instances of one mutex nest (%s acquired while %s is held); concurrent callers locking the instances in the opposite order deadlock"
		case reaches(e.to, e.from):
			msg = "lock order cycle: %s acquired while %s is held, but another path acquires them in the reverse order — ABBA deadlock"
		default:
			continue
		}
		ds = append(ds, finding{d: Diagnostic{Pos: e.pos, Check: CheckLockOrder, Message: fmt.Sprintf(msg, e.toPath, e.fromPath)}})
	}
	return ds
}
