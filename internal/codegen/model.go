// Package codegen implements the paper's prototype tool (figure 4): from
// a description of the precedence graph, the Cav/Cwc tables and the
// deadlines, it computes the EDF schedule, the precomputed constraint
// tables, and emits a "controlled application" source listing (the
// paper's compiler links these with the action code and a generic
// controller).
//
// The input is a small line-oriented text format:
//
//	# comment
//	levels 0 7            # quality level range
//	action <name>
//	edge <from> <to>
//	time <action> <level|*> <av> <wc>
//	deadline <action> <level|*> <cycles|inf>
//	iterate <n>           # optional: unroll the body n times (chained)
//
// Unspecified times default to 0; unspecified deadlines default to +inf.
package codegen

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Parse bounds the size of the system a model may describe, so that a
// hostile or mistyped model is an error rather than an allocation that
// does not fit in memory or a build that does not finish.
const (
	// MaxLevels bounds the quality levels of a levels directive: far
	// above the paper's eight, and small enough that every time family
	// and constraint table stays at most MaxLevels·MaxActions entries.
	MaxLevels = 256
	// MaxActions bounds the actions of the built system, body actions
	// times the iterate count: a CIF frame of 396 macroblocks at nine
	// actions each (3564) fits.
	MaxActions = 4096
)

// Model is the parsed tool input.
type Model struct {
	Levels  core.LevelSet
	Actions []string
	Edges   [][2]string
	Iterate int

	times     map[timeKey][2]core.Cycles
	deadlines map[timeKey]core.Cycles
}

type timeKey struct {
	action string
	level  core.Level // -1 means "all levels"
}

// Parse reads the textual model format.
func Parse(r io.Reader) (*Model, error) {
	m := &Model{
		Iterate:   1,
		times:     make(map[timeKey][2]core.Cycles),
		deadlines: make(map[timeKey]core.Cycles),
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
			// hi ≥ lo, so the unsigned difference is exact even where
			// the signed one overflows.
			if uint(hi)-uint(lo) >= MaxLevels {
				return nil, fail("level range %d..%d has more than %d levels", lo, hi, MaxLevels)
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
			lvl, err := parseLevel(fields[2])
			if err != nil {
				return nil, fail("%v", err)
			}
			av, err1 := parseCycles(fields[3])
			wc, err2 := parseCycles(fields[4])
			if err1 != nil || err2 != nil {
				return nil, fail("bad cycles %q %q", fields[3], fields[4])
			}
			m.times[timeKey{fields[1], lvl}] = [2]core.Cycles{av, wc}
		case "deadline":
			if len(fields) != 4 {
				return nil, fail("deadline needs <action> <level|*> <cycles|inf>")
			}
			lvl, err := parseLevel(fields[2])
			if err != nil {
				return nil, fail("%v", err)
			}
			d, err := parseCycles(fields[3])
			if err != nil {
				return nil, fail("bad deadline %q", fields[3])
			}
			m.deadlines[timeKey{fields[1], lvl}] = d
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
	if len(m.Actions) > MaxActions/m.Iterate {
		return nil, fmt.Errorf("codegen: %d actions iterated %d times exceed %d actions", len(m.Actions), m.Iterate, MaxActions)
	}
	return m, nil
}

func parseLevel(s string) (core.Level, error) {
	if s == "*" {
		return -1, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad level %q", s)
	}
	return core.Level(v), nil
}

func parseCycles(s string) (core.Cycles, error) {
	if s == "inf" || s == "+inf" {
		return core.Inf, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad cycles %q", s)
	}
	return core.Cycles(v), nil
}

// TimeEntry is one time directive of a parsed model. Level is
// WildcardLevel for a "*" directive that applies to every level.
type TimeEntry struct {
	Action string
	Level  core.Level
	Av, Wc core.Cycles
}

// DeadlineEntry is one deadline directive of a parsed model. Level is
// WildcardLevel for a "*" directive.
type DeadlineEntry struct {
	Action   string
	Level    core.Level
	Deadline core.Cycles
}

// WildcardLevel marks a directive that applies to all quality levels.
const WildcardLevel core.Level = -1

// Times returns the model's time directives in deterministic
// (action, level) order, for consumers that rebuild the model in
// another representation (e.g. the public SystemBuilder).
func (m *Model) Times() []TimeEntry {
	out := make([]TimeEntry, 0, len(m.times))
	for k, v := range m.times {
		out = append(out, TimeEntry{Action: k.action, Level: k.level, Av: v[0], Wc: v[1]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Action != out[j].Action {
			return out[i].Action < out[j].Action
		}
		return out[i].Level < out[j].Level
	})
	return out
}

// Deadlines returns the model's deadline directives in deterministic
// (action, level) order.
func (m *Model) Deadlines() []DeadlineEntry {
	out := make([]DeadlineEntry, 0, len(m.deadlines))
	for k, v := range m.deadlines {
		out = append(out, DeadlineEntry{Action: k.action, Level: k.level, Deadline: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Action != out[j].Action {
			return out[i].Action < out[j].Action
		}
		return out[i].Level < out[j].Level
	})
	return out
}

// lookupTime resolves the (action, level) time with the "*" fallback.
func (m *Model) lookupTime(action string, q core.Level) ([2]core.Cycles, bool) {
	if v, ok := m.times[timeKey{action, q}]; ok {
		return v, true
	}
	v, ok := m.times[timeKey{action, -1}]
	return v, ok
}

func (m *Model) lookupDeadline(action string, q core.Level) (core.Cycles, bool) {
	if v, ok := m.deadlines[timeKey{action, q}]; ok {
		return v, true
	}
	v, ok := m.deadlines[timeKey{action, -1}]
	return v, ok
}

// BuildSystem materialises the parsed model into a validated
// parameterized real-time system, applying the iterate directive. For an
// iterated model, a deadline given for a body action is applied to its
// last iteration only (the paper's end-of-cycle deadline convention);
// per-iteration deadlines can be expressed by naming unrolled actions
// directly in a non-iterated model.
func (m *Model) BuildSystem() (*core.System, error) {
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
			if v, ok := m.lookupTime(name, q); ok {
				cav.Set(q, core.ActionID(a), v[0])
				cwc.Set(q, core.ActionID(a), v[1])
			}
			if dl, ok := m.lookupDeadline(name, q); ok {
				d.Set(q, core.ActionID(a), dl)
			}
		}
	}
	return core.NewIteratedSystem(body, m.Iterate, m.Levels, cav, cwc, d, nil)
}
