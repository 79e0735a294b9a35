package session_test

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
)

// This file keeps the second model path the library had before the
// ".qos" parser fed SystemBuilder directly, as a test oracle:
// codegen.Parse into a Model of string-keyed maps, FromModel
// re-declaring it into a map-keyed SystemBuilder, and that builder's
// check and Build; and codegen's own BuildSystem. It is the old code
// with two deliberate changes that the production path also made: a
// negative level token is rejected ("bad level"), where it used to
// mean "*", and FromModel no longer writes zero times at the negative
// levels of a range that the builder rejects anyway.

// MaxLevels and MaxActions are the old parser's bounds.
const (
	oracleMaxLevels  = 256
	oracleMaxActions = 4096
)

// oracleModel is codegen.Model: the parsed tool input.
type oracleModel struct {
	Levels  core.LevelSet
	Actions []string
	Edges   [][2]string
	Iterate int

	times     map[oracleKey][2]core.Cycles
	deadlines map[oracleKey]core.Cycles
}

type oracleKey struct {
	action string
	level  core.Level // -1 means "all levels"
}

// oracleParse is codegen.Parse.
func oracleParse(r io.Reader) (*oracleModel, error) {
	m := &oracleModel{
		Iterate:   1,
		times:     make(map[oracleKey][2]core.Cycles),
		deadlines: make(map[oracleKey]core.Cycles),
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("codegen: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "levels":
			if len(fields) != 3 {
				return nil, fail("levels needs <lo> <hi>")
			}
			lo, err1 := strconv.Atoi(fields[1])
			hi, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || hi < lo {
				return nil, fail("bad level range %q %q", fields[1], fields[2])
			}
			if uint(hi)-uint(lo) >= oracleMaxLevels {
				return nil, fail("level range %d..%d has more than %d levels", lo, hi, oracleMaxLevels)
			}
			m.Levels = core.NewLevelRange(core.Level(lo), core.Level(hi))
		case "action":
			if len(fields) != 2 {
				return nil, fail("action needs <name>")
			}
			m.Actions = append(m.Actions, fields[1])
		case "edge":
			if len(fields) != 3 {
				return nil, fail("edge needs <from> <to>")
			}
			m.Edges = append(m.Edges, [2]string{fields[1], fields[2]})
		case "time":
			if len(fields) != 5 {
				return nil, fail("time needs <action> <level|*> <av> <wc>")
			}
			lvl, err := oracleParseLevel(fields[2])
			if err != nil {
				return nil, fail("%v", err)
			}
			av, err1 := oracleParseCycles(fields[3])
			wc, err2 := oracleParseCycles(fields[4])
			if err1 != nil || err2 != nil {
				return nil, fail("bad cycles %q %q", fields[3], fields[4])
			}
			m.times[oracleKey{fields[1], lvl}] = [2]core.Cycles{av, wc}
		case "deadline":
			if len(fields) != 4 {
				return nil, fail("deadline needs <action> <level|*> <cycles|inf>")
			}
			lvl, err := oracleParseLevel(fields[2])
			if err != nil {
				return nil, fail("%v", err)
			}
			d, err := oracleParseCycles(fields[3])
			if err != nil {
				return nil, fail("bad deadline %q", fields[3])
			}
			m.deadlines[oracleKey{fields[1], lvl}] = d
		case "iterate":
			if len(fields) != 2 {
				return nil, fail("iterate needs <n>")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 1 {
				return nil, fail("bad iterate count %q", fields[1])
			}
			m.Iterate = n
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("codegen: read: %w", err)
	}
	if m.Levels == nil {
		return nil, fmt.Errorf("codegen: model has no levels directive")
	}
	if len(m.Actions) == 0 {
		return nil, fmt.Errorf("codegen: model has no actions")
	}
	if len(m.Actions) > oracleMaxActions/m.Iterate {
		return nil, fmt.Errorf("codegen: %d actions iterated %d times exceed %d actions", len(m.Actions), m.Iterate, oracleMaxActions)
	}
	return m, nil
}

func oracleParseLevel(s string) (core.Level, error) {
	if s == "*" {
		return -1, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 { // v < 0: rejected since the one-path parser
		return 0, fmt.Errorf("bad level %q", s)
	}
	return core.Level(v), nil
}

func oracleParseCycles(s string) (core.Cycles, error) {
	if s == "inf" || s == "+inf" {
		return core.Inf, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad cycles %q", s)
	}
	return core.Cycles(v), nil
}

func oracleLookup[V any](m map[oracleKey]V, action string, q core.Level) (V, bool) {
	if v, ok := m[oracleKey{action, q}]; ok {
		return v, true
	}
	v, ok := m[oracleKey{action, -1}]
	return v, ok
}

// BuildSystem is codegen's Model.BuildSystem.
func (m *oracleModel) BuildSystem() (*core.System, error) {
	b := core.NewGraphBuilder()
	for _, a := range m.Actions {
		b.AddAction(a)
	}
	for _, e := range m.Edges {
		b.AddEdge(e[0], e[1])
	}
	body, err := b.Build()
	if err != nil {
		return nil, err
	}
	n := len(m.Actions)
	cav := core.NewTimeFamily(m.Levels, n, 0)
	cwc := core.NewTimeFamily(m.Levels, n, 0)
	d := core.NewTimeFamily(m.Levels, n, core.Inf)
	for a, name := range m.Actions {
		for _, q := range m.Levels {
			if v, ok := oracleLookup(m.times, name, q); ok {
				cav.Set(q, core.ActionID(a), v[0])
				cwc.Set(q, core.ActionID(a), v[1])
			}
			if dl, ok := oracleLookup(m.deadlines, name, q); ok {
				d.Set(q, core.ActionID(a), dl)
			}
		}
	}
	return core.NewIteratedSystem(body, m.Iterate, m.Levels, cav, cwc, d, nil)
}

// oracleBuilder is SystemBuilder as it was, its times and deadlines in
// maps keyed by action name and level; soft marks, which the text
// format cannot express, are left out.
type oracleBuilder struct {
	levels    core.LevelSet
	levelsSet bool
	actions   []string
	index     map[string]int
	edges     [][2]string
	times     map[oracleKey][2]core.Cycles
	deadlines map[oracleKey]core.Cycles
	iterate   int
	errs      []error
}

// oracleFromModel is FromModel: it re-declares a parsed model into a
// builder, writing the text format's zero default as explicit times.
// The parser leaves no level below −1 (the wildcard), so the builder's
// negative-level errors of Time and Deadline cannot fire here.
func oracleFromModel(m *oracleModel) *oracleBuilder {
	b := &oracleBuilder{
		index:     make(map[string]int),
		times:     make(map[oracleKey][2]core.Cycles),
		deadlines: make(map[oracleKey]core.Cycles),
		iterate:   1,
	}
	if len(m.Levels) > 0 {
		b.Levels(m.Levels.Min(), m.Levels.Max())
	}
	for _, a := range m.Actions {
		b.Action(a)
	}
	b.edges = append(b.edges, m.Edges...)
	for k, v := range m.times {
		b.times[k] = v
	}
	for _, name := range m.Actions {
		if _, ok := oracleLookup(b.times, name, -1); ok {
			continue
		}
		for _, q := range m.Levels {
			if _, ok := oracleLookup(b.times, name, q); !ok && q >= 0 {
				b.times[oracleKey{name, q}] = [2]core.Cycles{}
			}
		}
	}
	for k, d := range m.deadlines {
		b.deadlines[k] = d
	}
	if m.Iterate > 1 {
		b.iterate = m.Iterate
	}
	return b
}

func (b *oracleBuilder) Levels(lo, hi core.Level) {
	if hi < lo {
		b.errs = append(b.errs, fmt.Errorf("qos: level range %d..%d is not ascending", lo, hi))
		return
	}
	if lo < 0 {
		b.errs = append(b.errs, fmt.Errorf("qos: level range %d..%d includes negative levels", lo, hi))
		return
	}
	b.levels = core.NewLevelRange(lo, hi)
	b.levelsSet = true
}

func (b *oracleBuilder) Action(name string) {
	if _, dup := b.index[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("qos: action %q declared twice", name))
		return
	}
	b.index[name] = len(b.actions)
	b.actions = append(b.actions, name)
}

func (b *oracleBuilder) check() error {
	errs := append([]error(nil), b.errs...)
	if !b.levelsSet {
		errs = append(errs, errors.New("qos: no quality levels declared (call Levels)"))
	}
	if len(b.actions) == 0 {
		errs = append(errs, errors.New("qos: no actions declared"))
	}
	for _, e := range b.edges {
		for _, end := range e {
			if _, ok := b.index[end]; !ok {
				errs = append(errs, fmt.Errorf("qos: edge %s -> %s references unknown action %q", e[0], e[1], end))
			}
		}
	}
	for k := range b.times {
		if _, ok := b.index[k.action]; !ok {
			errs = append(errs, fmt.Errorf("qos: execution time for unknown action %q", k.action))
		}
		if k.level != -1 && b.levelsSet && !b.levels.Contains(k.level) {
			errs = append(errs, fmt.Errorf("qos: execution time for action %q at level %d outside range %v", k.action, k.level, b.levels))
		}
	}
	for k := range b.deadlines {
		if _, ok := b.index[k.action]; !ok {
			errs = append(errs, fmt.Errorf("qos: deadline for unknown action %q", k.action))
		}
		if k.level != -1 && b.levelsSet && !b.levels.Contains(k.level) {
			errs = append(errs, fmt.Errorf("qos: deadline for action %q at level %d outside range %v", k.action, k.level, b.levels))
		}
	}
	if b.levelsSet {
		for _, name := range b.actions {
			for _, q := range b.levels {
				if _, ok := oracleLookup(b.times, name, q); !ok {
					errs = append(errs, fmt.Errorf("qos: action %q has no execution time at level %d", name, q))
				}
			}
		}
	}
	return errors.Join(errs...)
}

func (b *oracleBuilder) Build() (*core.System, error) {
	if err := b.check(); err != nil {
		return nil, err
	}
	gb := core.NewGraphBuilder()
	for _, name := range b.actions {
		gb.AddAction(name)
	}
	for _, e := range b.edges {
		gb.AddEdge(e[0], e[1])
	}
	body, err := gb.Build()
	if err != nil {
		return nil, err
	}
	m := len(b.actions)
	cav := core.NewTimeFamily(b.levels, m, 0)
	cwc := core.NewTimeFamily(b.levels, m, 0)
	d := core.NewTimeFamily(b.levels, m, core.Inf)
	for a, name := range b.actions {
		for _, q := range b.levels {
			if v, ok := oracleLookup(b.times, name, q); ok {
				cav.Set(q, core.ActionID(a), v[0])
				cwc.Set(q, core.ActionID(a), v[1])
			}
			if dl, ok := oracleLookup(b.deadlines, name, q); ok {
				d.Set(q, core.ActionID(a), dl)
			}
		}
	}
	return core.NewIteratedSystem(body, b.iterate, b.levels, cav, cwc, d, nil)
}

// oracleLoad reads src down the old path: Parse, FromModel, Build.
func oracleLoad(src string) (*core.System, error) {
	m, err := oracleParse(strings.NewReader(src))
	if err != nil {
		return nil, err
	}
	return oracleFromModel(m).Build()
}
