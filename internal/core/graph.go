// Package core implements the fine-grain QoS control method of
// Combaz, Fernandez, Lepley and Sifakis, "Fine Grain QoS Control for
// Multimedia Application Software" (DATE 2005).
//
// The package models an application as a precedence graph of atomic
// actions with quality-level parameters, and provides the controller
// (Scheduler + Quality Manager) that picks, after each completed action,
// the next action to run and the maximal quality level that keeps the
// remaining cycle feasible.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// ActionID identifies an action within a Graph. IDs are dense and start
// at zero; they index every per-action table in this package.
type ActionID int

// Graph is an immutable precedence graph G = (A, →). An edge a → b means
// b can start only after a has completed. Graphs are built with
// GraphBuilder and are guaranteed acyclic.
type Graph struct {
	names []string
	index map[string]ActionID
	succs [][]ActionID
	preds [][]ActionID
	topo  []ActionID // one valid topological order, by construction
}

// GraphBuilder accumulates actions and precedence edges by name and
// validates them into a Graph.
type GraphBuilder struct {
	names []string
	index map[string]ActionID
	edges [][2]ActionID
	err   error
}

// NewGraphBuilder returns an empty builder.
func NewGraphBuilder() *GraphBuilder {
	return &GraphBuilder{index: make(map[string]ActionID)}
}

// AddAction declares an action with the given name and returns its ID.
// Declaring the same name twice returns the existing ID.
func (b *GraphBuilder) AddAction(name string) ActionID {
	if id, ok := b.index[name]; ok {
		return id
	}
	id := ActionID(len(b.names))
	b.names = append(b.names, name)
	b.index[name] = id
	return id
}

// AddEdge records a precedence a → b. Both endpoints must already be
// declared; unknown endpoints are recorded as an error reported by Build.
func (b *GraphBuilder) AddEdge(from, to string) {
	fi, ok1 := b.index[from]
	ti, ok2 := b.index[to]
	if !ok1 || !ok2 {
		if b.err == nil {
			b.err = fmt.Errorf("core: edge %q -> %q references undeclared action", from, to)
		}
		return
	}
	b.edges = append(b.edges, [2]ActionID{fi, ti})
}

// Build validates the accumulated actions and edges and returns the
// immutable Graph. It fails if the graph has no actions, references
// undeclared actions, or contains a self edge or a cycle.
func (b *GraphBuilder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	return NewGraph(b.names, b.edges)
}

// NewGraph returns the graph whose action a is named names[a], with the
// precedence edges given as (from, to) ID pairs; an edge given twice
// counts once. Each action's successors and predecessors are in
// ascending ID order. It fails on an empty graph, an edge outside the
// actions, a self edge (the first in edges order) or a cycle.
func NewGraph(names []string, edges [][2]ActionID) (*Graph, error) {
	n := len(names)
	if n == 0 {
		return nil, fmt.Errorf("core: graph has no actions")
	}
	for _, e := range edges {
		if uint(e[0]) >= uint(n) || uint(e[1]) >= uint(n) {
			return nil, fmt.Errorf("core: edge %d -> %d outside %d actions", e[0], e[1], n)
		}
		if e[0] == e[1] {
			return nil, fmt.Errorf("core: self edge on %q", names[e[0]])
		}
	}
	g := &Graph{
		names: append([]string(nil), names...),
		index: make(map[string]ActionID, n),
		succs: make([][]ActionID, n),
		preds: make([][]ActionID, n),
	}
	for id, name := range g.names {
		g.index[name] = ActionID(id)
	}
	sorted := slices.Clone(edges)
	slices.SortFunc(sorted, func(x, y [2]ActionID) int {
		if c := cmp.Compare(x[0], y[0]); c != 0 {
			return c
		}
		return cmp.Compare(x[1], y[1])
	})
	for _, e := range slices.Compact(sorted) {
		g.succs[e[0]] = append(g.succs[e[0]], e[1])
		g.preds[e[1]] = append(g.preds[e[1]], e[0])
	}
	topo, err := topoSort(g)
	if err != nil {
		return nil, err
	}
	g.topo = topo
	return g, nil
}

// topoSort returns a deterministic topological order (Kahn's algorithm,
// smallest-ID-first) or an error naming a cycle participant.
func topoSort(g *Graph) ([]ActionID, error) {
	n := g.Len()
	indeg := make([]int, n)
	for a := 0; a < n; a++ {
		indeg[a] = len(g.preds[a])
	}
	// Min-heap behaviour via sorted ready list keeps the order stable.
	ready := make([]ActionID, 0, n)
	for a := 0; a < n; a++ {
		if indeg[a] == 0 {
			ready = append(ready, ActionID(a))
		}
	}
	order := make([]ActionID, 0, n)
	for len(ready) > 0 {
		// Pop the smallest ready ID.
		best := 0
		for i := 1; i < len(ready); i++ {
			if ready[i] < ready[best] {
				best = i
			}
		}
		a := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, a)
		for _, s := range g.succs[a] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n {
		for a := 0; a < n; a++ {
			if indeg[a] > 0 {
				return nil, fmt.Errorf("core: precedence graph has a cycle through %q", g.names[a])
			}
		}
	}
	return order, nil
}

// Len returns the number of actions |A|.
func (g *Graph) Len() int { return len(g.names) }

// Name returns the name of action a.
func (g *Graph) Name(a ActionID) string { return g.names[a] }

// Names returns a copy of all action names indexed by ActionID.
func (g *Graph) Names() []string { return append([]string(nil), g.names...) }

// Lookup returns the ActionID for name.
func (g *Graph) Lookup(name string) (ActionID, bool) {
	id, ok := g.index[name]
	return id, ok
}

// Succs returns the direct successors of a (actions that require a).
func (g *Graph) Succs(a ActionID) []ActionID { return g.succs[a] }

// Preds returns the direct predecessors of a.
func (g *Graph) Preds(a ActionID) []ActionID { return g.preds[a] }

// Topo returns a valid topological order of all actions.
func (g *Graph) Topo() []ActionID { return append([]ActionID(nil), g.topo...) }

// Sources returns the actions with no predecessors.
func (g *Graph) Sources() []ActionID {
	var out []ActionID
	for a := 0; a < g.Len(); a++ {
		if len(g.preds[a]) == 0 {
			out = append(out, ActionID(a))
		}
	}
	return out
}

// Sinks returns the actions with no successors.
func (g *Graph) Sinks() []ActionID {
	var out []ActionID
	for a := 0; a < g.Len(); a++ {
		if len(g.succs[a]) == 0 {
			out = append(out, ActionID(a))
		}
	}
	return out
}

// IsExecutionSequence reports whether seq is an execution sequence of g:
// distinct actions, order compatible with the precedence relation, and
// every prefix closed under predecessors.
func (g *Graph) IsExecutionSequence(seq []ActionID) bool {
	pos := make([]int, g.Len())
	for i := range pos {
		pos[i] = -1
	}
	for i, a := range seq {
		if a < 0 || int(a) >= g.Len() || pos[a] >= 0 {
			return false
		}
		pos[a] = i
	}
	for _, a := range seq {
		for _, p := range g.preds[a] {
			if pos[p] < 0 || pos[p] > pos[a] {
				return false
			}
		}
	}
	return true
}

// IsSchedule reports whether seq is a schedule: an execution sequence in
// which every action of A occurs.
func (g *Graph) IsSchedule(seq []ActionID) bool {
	return len(seq) == g.Len() && g.IsExecutionSequence(seq)
}

// Reachable reports whether b is reachable from a by following edges.
func (g *Graph) Reachable(a, b ActionID) bool {
	if a == b {
		return true
	}
	seen := make([]bool, g.Len())
	stack := []ActionID{a}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == b {
			return true
		}
		for _, s := range g.succs[x] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// String renders the graph as "a -> b" lines in ID order, for debugging
// and for the qosctl show command.
func (g *Graph) String() string {
	var sb strings.Builder
	for a := 0; a < g.Len(); a++ {
		if len(g.succs[a]) == 0 && len(g.preds[a]) == 0 {
			fmt.Fprintf(&sb, "%s\n", g.names[a])
			continue
		}
		for _, s := range g.succs[a] {
			fmt.Fprintf(&sb, "%s -> %s\n", g.names[a], g.names[s])
		}
	}
	return sb.String()
}

// Unroll builds the iteration of g n times: the graph whose actions are
// n copies of g's actions (named "name#k" for iteration k), with g's
// edges inside each copy and, when chain is true, edges from every sink
// of copy k to every source of copy k+1. This models the paper's frame
// treatment: the iteration N times of a macroblock body.
//
// Action k·m+a is body action a in iteration k (m = g.Len()), so the
// graph is built by index arithmetic: successors are g's shifted by k·m,
// and a chained sink's successors are the next copy's sources. That
// reproduces the ascending (from, to) edge order GraphBuilder gives.
// Names share one string, and adjacency lists one slab per direction.
func (g *Graph) Unroll(n int, chain bool) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: Unroll count %d must be positive", n)
	}
	m := g.Len()
	if m == 0 {
		return nil, fmt.Errorf("core: graph has no actions")
	}
	total := n * m
	var sinks, sources []ActionID // the chain edges' ends; none unchained
	if chain {
		sinks, sources = g.Sinks(), g.Sources()
	}
	bodyEdges, nameBytes := 0, 0
	for a := 0; a < m; a++ {
		bodyEdges += len(g.succs[a])
		nameBytes += len(g.names[a])
	}
	nameBytes *= n
	for k := 0; k < n; k++ {
		nameBytes += m * (1 + digits(k))
	}

	u := &Graph{
		names: make([]string, total),
		index: make(map[string]ActionID, total),
		succs: make([][]ActionID, total),
		preds: make([][]ActionID, total),
	}
	var sb strings.Builder
	sb.Grow(nameBytes)
	var suffix [24]byte
	for k := 0; k < n; k++ {
		sfx := strconv.AppendInt(append(suffix[:0], '#'), int64(k), 10)
		for a := 0; a < m; a++ {
			sb.WriteString(g.names[a])
			sb.Write(sfx)
		}
	}
	all, off := sb.String(), 0
	for id := range u.names {
		end := off + len(g.names[id%m]) + 1 + digits(id/m)
		u.names[id] = all[off:end]
		u.index[u.names[id]] = ActionID(id)
		off = end
	}

	edges := n*bodyEdges + (n-1)*len(sinks)*len(sources)
	succSlab := make([]ActionID, 0, edges)
	predSlab := make([]ActionID, 0, edges)
	for k := 0; k < n; k++ {
		base := ActionID(k * m)
		for a := 0; a < m; a++ {
			lo := len(succSlab)
			if len(g.succs[a]) > 0 {
				for _, s := range g.succs[a] {
					succSlab = append(succSlab, base+s)
				}
			} else if k+1 < n {
				for _, s := range sources {
					succSlab = append(succSlab, base+ActionID(m)+s)
				}
			}
			if hi := len(succSlab); hi > lo {
				u.succs[base+ActionID(a)] = succSlab[lo:hi:hi]
			}
			lo = len(predSlab)
			if len(g.preds[a]) > 0 {
				for _, p := range g.preds[a] {
					predSlab = append(predSlab, base+p)
				}
			} else if k > 0 {
				for _, p := range sinks {
					predSlab = append(predSlab, base-ActionID(m)+p)
				}
			}
			if hi := len(predSlab); hi > lo {
				u.preds[base+ActionID(a)] = predSlab[lo:hi:hi]
			}
		}
	}
	// Every action of copy k precedes every action of copy k+1 in any
	// order when chained (each reaches a sink of copy k, which every
	// source of copy k+1 follows), and in topoSort's smallest-ID-first
	// order unchained, so g's order repeated copy by copy is u's.
	u.topo = make([]ActionID, 0, total)
	for k := 0; k < n; k++ {
		for _, a := range g.topo {
			u.topo = append(u.topo, ActionID(k*m)+a)
		}
	}
	return u, nil
}

// digits returns the length of k's decimal form, k ≥ 0.
func digits(k int) int {
	d := 1
	for ; k >= 10; k /= 10 {
		d++
	}
	return d
}

// UnrolledID returns, for a graph produced by Unroll, the ID in the
// unrolled graph of base action a in iteration k.
func UnrolledID(base *Graph, a ActionID, k int) ActionID {
	return ActionID(k*base.Len() + int(a))
}

// BaseOf returns, for an ID in a graph produced by Unroll, the base
// action and iteration index it came from.
func BaseOf(base *Graph, a ActionID) (ActionID, int) {
	n := base.Len()
	return ActionID(int(a) % n), int(a) / n
}
