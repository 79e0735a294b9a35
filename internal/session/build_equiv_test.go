package session_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mpeg"
	"repro/internal/session"
)

// modelSpec is a model as declared: body actions and edges, per-level
// or wildcard (level −1) times and deadlines, soft marks and the
// iterate count. It drives both builders and the reference.
type modelSpec struct {
	levels    core.LevelSet
	actions   []string
	edges     [][2]string
	times     map[specKey][2]core.Cycles
	deadlines map[specKey]core.Cycles
	soft      map[string]bool
	iterate   int
}

type specKey struct {
	action string
	level  core.Level
}

func lookupSpec[V any](m map[specKey]V, action string, q core.Level) (V, bool) {
	if v, ok := m[specKey{action, q}]; ok {
		return v, true
	}
	v, ok := m[specKey{action, -1}]
	return v, ok
}

// refBuild is the reference build: the per-unrolled-action expansion
// the builders ran before, resolving every unrolled action's times and
// deadline by name and giving deadlines to the last iteration only.
func refBuild(t *testing.T, s *modelSpec) *core.System {
	t.Helper()
	gb := core.NewGraphBuilder()
	for _, a := range s.actions {
		gb.AddAction(a)
	}
	for _, e := range s.edges {
		gb.AddEdge(e[0], e[1])
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.iterate > 1 {
		if g, err = g.Unroll(s.iterate, true); err != nil {
			t.Fatal(err)
		}
	}
	n := g.Len()
	cav := core.NewTimeFamily(s.levels, n, 0)
	cwc := core.NewTimeFamily(s.levels, n, 0)
	d := core.NewTimeFamily(s.levels, n, core.Inf)
	var soft []bool
	for a := 0; a < n; a++ {
		name := s.actions[a%len(s.actions)]
		iter := a / len(s.actions)
		for _, q := range s.levels {
			if v, ok := lookupSpec(s.times, name, q); ok {
				cav.Set(q, core.ActionID(a), v[0])
				cwc.Set(q, core.ActionID(a), v[1])
			}
			if dl, ok := lookupSpec(s.deadlines, name, q); ok {
				if s.iterate == 1 || iter == s.iterate-1 {
					d.Set(q, core.ActionID(a), dl)
				}
			}
		}
		if s.soft[name] {
			if soft == nil {
				soft = make([]bool, n)
			}
			soft[a] = true
		}
	}
	sys, err := core.NewSystem(g, s.levels, cav, cwc, d)
	if err != nil {
		t.Fatal(err)
	}
	sys.Soft = soft
	return sys
}

// diffSystem describes the first part on which got and want differ, or
// returns "": action names, Levels, Cav, Cwc, D and Soft.
func diffSystem(got, want *core.System) string {
	switch {
	case !reflect.DeepEqual(got.Graph.Names(), want.Graph.Names()):
		return fmt.Sprintf("names %q, want %q", got.Graph.Names(), want.Graph.Names())
	case got.Graph.String() != want.Graph.String():
		return fmt.Sprintf("edges\n%s\nwant\n%s", got.Graph, want.Graph)
	case !reflect.DeepEqual(got.Levels, want.Levels):
		return fmt.Sprintf("levels %v, want %v", got.Levels, want.Levels)
	case !reflect.DeepEqual(got.Cav, want.Cav):
		return "Cav " + diffFamily(got.Cav, want.Cav, want.Graph)
	case !reflect.DeepEqual(got.Cwc, want.Cwc):
		return "Cwc " + diffFamily(got.Cwc, want.Cwc, want.Graph)
	case !reflect.DeepEqual(got.D, want.D):
		return "D " + diffFamily(got.D, want.D, want.Graph)
	case !reflect.DeepEqual(got.Soft, want.Soft):
		return fmt.Sprintf("Soft %v, want %v", got.Soft, want.Soft)
	}
	return ""
}

// diffFamily names the first entry on which got and want differ.
func diffFamily(got, want *core.TimeFamily, g *core.Graph) string {
	if !reflect.DeepEqual(got.Levels, want.Levels) || len(got.Fns) != len(want.Fns) {
		return fmt.Sprintf("levels %v, want %v", got.Levels, want.Levels)
	}
	for i, fn := range want.Fns {
		if len(got.Fns[i]) != len(fn) {
			return fmt.Sprintf("has %d actions at level %d, want %d", len(got.Fns[i]), want.Levels[i], len(fn))
		}
		for a, v := range fn {
			if got.Fns[i][a] != v {
				return fmt.Sprintf("of %s at level %d is %v, want %v", g.Name(core.ActionID(a)), want.Levels[i], got.Fns[i][a], v)
			}
		}
	}
	return "differs"
}

// builder declares s through the fluent SystemBuilder.
func (s *modelSpec) builder() *session.SystemBuilder {
	b := session.NewSystemBuilder().Levels(s.levels.Min(), s.levels.Max())
	b.Actions(s.actions...)
	for _, e := range s.edges {
		b.Edge(e[0], e[1])
	}
	for k, v := range s.times {
		if k.level < 0 {
			b.TimeAll(k.action, v[0], v[1])
		} else {
			b.Time(k.action, k.level, v[0], v[1])
		}
	}
	for k, v := range s.deadlines {
		if k.level < 0 {
			b.DeadlineAll(k.action, v)
		} else {
			b.Deadline(k.action, k.level, v)
		}
	}
	for a := range s.soft {
		b.SoftDeadline(a)
	}
	return b.Iterate(s.iterate)
}

// text renders s in the .qos model format, which has no soft marks.
func (s *modelSpec) text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "levels %d %d\n", s.levels.Min(), s.levels.Max())
	for _, a := range s.actions {
		fmt.Fprintf(&sb, "action %s\n", a)
	}
	for _, e := range s.edges {
		fmt.Fprintf(&sb, "edge %s %s\n", e[0], e[1])
	}
	level := func(q core.Level) string {
		if q < 0 {
			return "*"
		}
		return fmt.Sprint(q)
	}
	for k, v := range s.times {
		fmt.Fprintf(&sb, "time %s %s %d %d\n", k.action, level(k.level), int64(v[0]), int64(v[1]))
	}
	for k, v := range s.deadlines {
		fmt.Fprintf(&sb, "deadline %s %s %s\n", k.action, level(k.level), v)
	}
	fmt.Fprintf(&sb, "iterate %d\n", s.iterate)
	return sb.String()
}

// specOf reads a model parsed by the oracle back into a spec.
func specOf(m *oracleModel) *modelSpec {
	s := &modelSpec{
		levels:    m.Levels,
		actions:   m.Actions,
		edges:     m.Edges,
		times:     make(map[specKey][2]core.Cycles),
		deadlines: make(map[specKey]core.Cycles),
		iterate:   m.Iterate,
	}
	for k, v := range m.times {
		s.times[specKey(k)] = v
	}
	for k, v := range m.deadlines {
		s.deadlines[specKey(k)] = v
	}
	return s
}

// randomSpec declares a valid random model: 1–9 actions in a random
// precedence order; per action, a wildcard time, times at every level,
// or a wildcard with exact overrides at the top levels (all
// non-decreasing in the level); no deadline, one at one level, at every
// level or a wildcard; soft marks; and iterate 1–4.
func randomSpec(r *rand.Rand) *modelSpec {
	lo := core.Level(r.Intn(3))
	s := &modelSpec{
		levels:    core.NewLevelRange(lo, lo+core.Level(r.Intn(7))),
		times:     make(map[specKey][2]core.Cycles),
		deadlines: make(map[specKey]core.Cycles),
		soft:      make(map[string]bool),
		iterate:   1 + r.Intn(4),
	}
	m := 1 + r.Intn(9)
	for i := 0; i < m; i++ {
		s.actions = append(s.actions, fmt.Sprintf("act%d", i))
	}
	order := r.Perm(m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if r.Intn(3) == 0 {
				s.edges = append(s.edges, [2]string{s.actions[order[i]], s.actions[order[j]]})
			}
		}
	}
	for _, a := range s.actions {
		av, wc := core.Cycles(1+r.Intn(100)), core.Cycles(100+r.Intn(100))
		switch r.Intn(3) {
		case 0:
			s.times[specKey{a, -1}] = [2]core.Cycles{av, wc}
		case 1:
			for i, q := range s.levels {
				step := core.Cycles(i * 10)
				s.times[specKey{a, q}] = [2]core.Cycles{av.AddSat(step), wc.AddSat(step)}
			}
		case 2:
			s.times[specKey{a, -1}] = [2]core.Cycles{av, wc}
			from := r.Intn(len(s.levels))
			for _, q := range s.levels[from:] {
				s.times[specKey{a, q}] = [2]core.Cycles{av.AddSat(200), wc.AddSat(200)}
			}
		}
		dl := core.Cycles(1000 + r.Intn(10000))
		switch r.Intn(4) {
		case 1:
			s.deadlines[specKey{a, s.levels[r.Intn(len(s.levels))]}] = dl
		case 2:
			for i, q := range s.levels {
				s.deadlines[specKey{a, q}] = dl.AddSat(core.Cycles(i))
			}
		case 3:
			s.deadlines[specKey{a, -1}] = dl
		}
		if r.Intn(4) == 0 {
			s.soft[a] = true
		}
	}
	return s
}

// TestBuildersMatchPerActionExpansion holds SystemBuilder.Build to the
// per-unrolled-action reference on random models, declared through the
// fluent builder with soft marks and through ParseModel of the .qos text
// without.
func TestBuildersMatchPerActionExpansion(t *testing.T) {
	r := rand.New(rand.NewSource(2405))
	for trial := 0; trial < 500; trial++ {
		s := randomSpec(r)
		want := refBuild(t, s)
		got, err := s.builder().Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if d := diffSystem(got, want); d != "" {
			t.Fatalf("SystemBuilder of\n%s: %s", s.text(), d)
		}

		s.soft = nil
		want = refBuild(t, s)
		b, err := session.ParseModel(strings.NewReader(s.text()))
		if err != nil {
			t.Fatal(err)
		}
		got, err = b.Build()
		if err != nil {
			t.Fatalf("ParseModel Build: %v", err)
		}
		if d := diffSystem(got, want); d != "" {
			t.Fatalf("ParseModel of\n%s: %s", s.text(), d)
		}
	}
}

// TestModelBuildsMatchPerActionExpansion builds the checked-in MPEG-4
// body model and the body tablegen -emit-mpeg-body writes at several
// iterate counts through the old codegen path (oracle_test.go) and
// through LoadModel/ParseModel, and holds both to the reference and to
// each other.
func TestModelBuildsMatchPerActionExpansion(t *testing.T) {
	models := map[string]string{}
	file, err := os.ReadFile("../../examples/models/mpeg_body.qos")
	if err != nil {
		t.Fatal(err)
	}
	models["mpeg_body.qos"] = string(file)
	for _, n := range []int{1, 2, 8, 13, 64} {
		var buf bytes.Buffer
		if err := mpeg.WriteBodyModel(&buf, n, 2_500_000); err != nil {
			t.Fatal(err)
		}
		models[fmt.Sprintf("emit-mpeg-body -iterate %d", n)] = buf.String()
	}
	for name, text := range models {
		m, err := oracleParse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := refBuild(t, specOf(m))
		fromCodegen, err := m.BuildSystem()
		if err != nil {
			t.Fatalf("%s: BuildSystem: %v", name, err)
		}
		b, err := session.ParseModel(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fromBuilder, err := b.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		if d := diffSystem(fromCodegen, want); d != "" {
			t.Errorf("%s: codegen: %s", name, d)
		}
		if d := diffSystem(fromBuilder, want); d != "" {
			t.Errorf("%s: SystemBuilder: %s", name, d)
		}
		if d := diffSystem(fromBuilder, fromCodegen); d != "" {
			t.Errorf("%s: SystemBuilder vs codegen: %s", name, d)
		}
	}
	fromFile, err := session.LoadModel("../../examples/models/mpeg_body.qos")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fromFile.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, _ := oracleParse(strings.NewReader(models["mpeg_body.qos"]))
	if d := diffSystem(got, refBuild(t, specOf(m))); d != "" {
		t.Errorf("LoadModel: %s", d)
	}
}
