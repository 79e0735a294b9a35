package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refUnroll is the reference for Unroll: every unrolled name through
// Sprintf and every edge by name through GraphBuilder, which dedups and
// sorts them.
func refUnroll(g *Graph, n int, chain bool) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: Unroll count %d must be positive", n)
	}
	b := NewGraphBuilder()
	name := func(a ActionID, k int) string {
		return fmt.Sprintf("%s#%d", g.names[a], k)
	}
	for k := 0; k < n; k++ {
		for a := 0; a < g.Len(); a++ {
			b.AddAction(name(ActionID(a), k))
		}
	}
	for k := 0; k < n; k++ {
		for a := 0; a < g.Len(); a++ {
			for _, s := range g.succs[a] {
				b.AddEdge(name(ActionID(a), k), name(s, k))
			}
		}
	}
	if chain {
		sinks, sources := g.Sinks(), g.Sources()
		for k := 0; k+1 < n; k++ {
			for _, s := range sinks {
				for _, src := range sources {
					b.AddEdge(name(s, k), name(src, k+1))
				}
			}
		}
	}
	return b.Build()
}

// randomBody builds an acyclic body of 1–9 actions whose edges follow a
// random topological order, so they run from higher to lower IDs as
// often as the other way. Some names carry a "#k" suffix of their own.
func randomBody(t *testing.T, r *rand.Rand) *Graph {
	t.Helper()
	m := 1 + r.Intn(9)
	names := make([]string, m)
	b := NewGraphBuilder()
	for i := range names {
		names[i] = string(rune('a' + i))
		if r.Intn(4) == 0 {
			names[i] += fmt.Sprintf("#%d", r.Intn(12))
		}
		b.AddAction(names[i])
	}
	order := r.Perm(m)
	p := r.Float64()
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if r.Float64() < p {
				b.AddEdge(names[order[i]], names[order[j]])
			}
		}
	}
	return mustGraph(t, b)
}

// diffGraph describes the first observable on which got and want
// differ, or returns "": names, Lookup of every name, Succs, Preds,
// Topo and String.
func diffGraph(got, want *Graph) string {
	if !reflect.DeepEqual(got.Names(), want.Names()) {
		return fmt.Sprintf("names %q, want %q", got.Names(), want.Names())
	}
	for i, name := range want.Names() {
		if id, ok := got.Lookup(name); !ok || id != ActionID(i) {
			return fmt.Sprintf("Lookup(%q) = %d, %v; want %d", name, id, ok, i)
		}
	}
	for a := 0; a < want.Len(); a++ {
		if s, w := got.Succs(ActionID(a)), want.Succs(ActionID(a)); !reflect.DeepEqual(s, w) {
			return fmt.Sprintf("Succs(%s) = %v, want %v", want.Name(ActionID(a)), s, w)
		}
		if p, w := got.Preds(ActionID(a)), want.Preds(ActionID(a)); !reflect.DeepEqual(p, w) {
			return fmt.Sprintf("Preds(%s) = %v, want %v", want.Name(ActionID(a)), p, w)
		}
	}
	if !reflect.DeepEqual(got.Topo(), want.Topo()) {
		return fmt.Sprintf("Topo = %v, want %v", got.Topo(), want.Topo())
	}
	if got.String() != want.String() {
		return fmt.Sprintf("String =\n%s\nwant\n%s", got.String(), want.String())
	}
	return ""
}

func TestUnrollMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for trial := 0; trial < 3000; trial++ {
		body := randomBody(t, r)
		n, chain := 1+r.Intn(5), r.Intn(2) == 0
		want, err := refUnroll(body, n, chain)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		got, err := body.Unroll(n, chain)
		if err != nil {
			t.Fatalf("Unroll: %v", err)
		}
		if d := diffGraph(got, want); d != "" {
			t.Fatalf("body\n%sunrolled %d times, chain=%v: %s", body, n, chain, d)
		}
	}
}

// TestUnrollMatchesReferenceLong covers iteration indices of two and
// three digits, where the names' lengths vary within one graph.
func TestUnrollMatchesReferenceLong(t *testing.T) {
	for _, n := range []int{11, 101, 600} {
		body := diamond(t)
		want, err := refUnroll(body, n, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := body.Unroll(n, true)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffGraph(got, want); d != "" {
			t.Fatalf("diamond unrolled %d times: %s", n, d)
		}
	}
	// An unrolled graph unrolled again, names with two suffixes.
	inner, err := diamond(t).Unroll(3, true)
	if err != nil {
		t.Fatal(err)
	}
	refInner, err := refUnroll(diamond(t), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inner.Unroll(12, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refUnroll(refInner, 12, false)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffGraph(got, want); d != "" {
		t.Fatalf("diamond unrolled 3 and then 12 times: %s", d)
	}
}

// TestUnrollAdjacencyIsolated holds each unrolled adjacency list to its
// own length: an append to one list must not write into its neighbour's.
func TestUnrollAdjacencyIsolated(t *testing.T) {
	u, err := diamond(t).Unroll(3, true)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < u.Len(); a++ {
		if s := u.Succs(ActionID(a)); cap(s) != len(s) {
			t.Errorf("Succs(%d) has capacity %d beyond its %d", a, cap(s), len(s))
		}
		if p := u.Preds(ActionID(a)); cap(p) != len(p) {
			t.Errorf("Preds(%d) has capacity %d beyond its %d", a, cap(p), len(p))
		}
	}
}

// refTile is the reference for Tile: the per-unrolled-action expansion
// the builders ran before, one Set per action and level.
func refTile(t *TimeFamily, n, from int, v Cycles) *TimeFamily {
	m := len(t.Fns[0])
	out := NewTimeFamily(t.Levels, n*m, v)
	for a := 0; a < n*m; a++ {
		if a/m < from {
			continue
		}
		for _, q := range t.Levels {
			out.Set(q, ActionID(a), t.At(q, ActionID(a%m)))
		}
	}
	return out
}

func TestTileMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		levels := NewLevelRange(Level(r.Intn(3)), Level(3+r.Intn(5)))
		m, n := 1+r.Intn(9), 1+r.Intn(5)
		body := NewTimeFamily(levels, m, 0)
		for i := range body.Fns {
			for a := range body.Fns[i] {
				body.Fns[i][a] = Cycles(r.Intn(1000))
			}
		}
		from := r.Intn(n + 1)
		v := Cycles(r.Intn(3)) - 1
		if v < 0 {
			v = Inf
		}
		got, want := body.Tile(n, from, v), refTile(body, n, from, v)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Tile(%d, %d, %v) of %v = %v, want %v", n, from, v, body.Fns, got.Fns, want.Fns)
		}
		for i, fn := range got.Fns {
			if cap(fn) != len(fn) {
				t.Fatalf("level %d function has capacity %d beyond its %d", i, cap(fn), len(fn))
			}
		}
	}
}
