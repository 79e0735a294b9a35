// Package session is the serving layer of the QoS library, the substance
// behind the public qos.SystemBuilder / qos.Session / qos.Runtime API:
//
//   - SystemBuilder accumulates the whole model of a controlled
//     application — actions, precedence edges, quality levels, per-level
//     execution times, deadlines — in one fluent value and validates it
//     into a core.System with errors that name the offending action and
//     level. ParseModel and LoadModel read the ".qos" text model format
//     (the prototype tool's input) straight into one.
//   - Session is the per-stream run loop over a controller: Next /
//     Completed, a Run(workload) convenience loop, Reset for cycle
//     reuse, and pluggable Observer hooks (on-decision, on-completion,
//     on-fallback) wired to internal/trace.
//   - Runtime is a goroutine-safe multi-stream server: one System's
//     precomputed tables (a core.Program) shared across any number of
//     concurrent Sessions, each one allocation of its own.
package session

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// wildcard is the level of a TimeAll or DeadlineAll declaration.
const wildcard core.Level = -1

// decl is one Time, TimeAll, Deadline or DeadlineAll declaration, kept
// in call order until check resolves it: v holds (av, wc), or the
// deadline in v[0].
type decl struct {
	action string
	level  core.Level // wildcard for the All forms
	v      [2]core.Cycles
}

// SystemBuilder accumulates a parameterized real-time system in one
// place and validates it as a whole. All methods return the builder for
// chaining; errors are collected and reported together by Build, each
// naming the offending action and quality level.
type SystemBuilder struct {
	levels    core.LevelSet
	levelsSet bool
	actions   []string
	index     map[string]core.ActionID
	edges     [][2]string
	times     []decl
	deadlines []decl
	soft      []string
	iterate   int
	// zeroTimes gives an action without a time at some level the time
	// 0 there, the text format's default, instead of failing check.
	zeroTimes bool
	errs      []error
}

// NewSystemBuilder returns an empty builder.
func NewSystemBuilder() *SystemBuilder {
	return &SystemBuilder{index: make(map[string]core.ActionID), iterate: 1}
}

func (b *SystemBuilder) fail(format string, args ...interface{}) {
	b.errs = append(b.errs, fmt.Errorf("qos: "+format, args...))
}

// Levels declares the quality level range {lo..hi}. It must be called
// exactly once and the range must be ascending.
func (b *SystemBuilder) Levels(lo, hi core.Level) *SystemBuilder {
	if b.levelsSet {
		b.fail("level range declared twice")
		return b
	}
	if hi < lo {
		b.fail("level range %d..%d is not ascending", lo, hi)
		return b
	}
	if lo < 0 {
		b.fail("level range %d..%d includes negative levels", lo, hi)
		return b
	}
	b.levels = core.NewLevelRange(lo, hi)
	b.levelsSet = true
	return b
}

// Action declares one action. Declaring the same name twice is an
// error — the old GraphBuilder silently merged duplicates, which hid
// copy-paste mistakes in large models.
func (b *SystemBuilder) Action(name string) *SystemBuilder {
	if name == "" {
		b.fail("action with empty name")
		return b
	}
	if _, dup := b.index[name]; dup {
		b.fail("action %q declared twice", name)
		return b
	}
	b.index[name] = core.ActionID(len(b.actions))
	b.actions = append(b.actions, name)
	return b
}

// Actions declares several actions at once.
func (b *SystemBuilder) Actions(names ...string) *SystemBuilder {
	for _, n := range names {
		b.Action(n)
	}
	return b
}

// Edge records the precedence from -> to. Endpoints are checked at
// Build, so declaration order does not matter.
func (b *SystemBuilder) Edge(from, to string) *SystemBuilder {
	b.edges = append(b.edges, [2]string{from, to})
	return b
}

// Chain records edges between each consecutive pair of names — the
// common "stage pipeline" shape in one call.
func (b *SystemBuilder) Chain(names ...string) *SystemBuilder {
	for i := 0; i+1 < len(names); i++ {
		b.Edge(names[i], names[i+1])
	}
	return b
}

// Time sets the (average, worst-case) execution time of action at
// quality level q. An exact level entry overrides a TimeAll wildcard.
func (b *SystemBuilder) Time(action string, q core.Level, av, wc core.Cycles) *SystemBuilder {
	if q < 0 {
		b.fail("time for action %q at negative level %d", action, q)
		return b
	}
	b.times = append(b.times, decl{action, q, [2]core.Cycles{av, wc}})
	return b
}

// TimeAll sets the execution time of action at every quality level.
func (b *SystemBuilder) TimeAll(action string, av, wc core.Cycles) *SystemBuilder {
	b.times = append(b.times, decl{action, wildcard, [2]core.Cycles{av, wc}})
	return b
}

// Deadline sets the deadline of action at quality level q. Unset
// deadlines default to +Inf (no deadline).
func (b *SystemBuilder) Deadline(action string, q core.Level, d core.Cycles) *SystemBuilder {
	if q < 0 {
		b.fail("deadline for action %q at negative level %d", action, q)
		return b
	}
	b.deadlines = append(b.deadlines, decl{action, q, [2]core.Cycles{d}})
	return b
}

// DeadlineAll sets the deadline of action at every quality level.
func (b *SystemBuilder) DeadlineAll(action string, d core.Cycles) *SystemBuilder {
	b.deadlines = append(b.deadlines, decl{action, wildcard, [2]core.Cycles{d}})
	return b
}

// SoftDeadline marks the action's deadline as soft: the Quality Manager
// applies only the average constraint to it (the paper's mixed
// hard/soft case).
func (b *SystemBuilder) SoftDeadline(action string) *SystemBuilder {
	b.soft = append(b.soft, action)
	return b
}

// Iterate declares the cycle as the n-fold chained iteration of the
// declared body (the paper's N-macroblock frame shape). Deadlines given
// for a body action apply to its last iteration only (the end-of-cycle
// deadline convention); times apply to every iteration.
func (b *SystemBuilder) Iterate(n int) *SystemBuilder {
	if n < 1 {
		b.fail("iterate count %d must be positive", n)
		return b
	}
	b.iterate = n
	return b
}

// Iterations returns the declared iterate count (1 when the cycle is
// the body itself).
func (b *SystemBuilder) Iterations() int { return b.iterate }

// Validate runs Build's declaration checks (duplicate actions, unknown
// edge endpoints, level coverage, ...) without materialising the
// system. Structural properties only the built system exposes (graph
// cycles, family monotonicity) are still reported by Build.
func (b *SystemBuilder) Validate() error {
	_, err := b.check()
	return err
}

// body is a builder's declarations resolved against its actions and
// levels, each entry once: the body's edges by ID, and its times,
// deadlines and soft marks in families sized for the body.
type body struct {
	edges       [][2]core.ActionID
	cav, cwc, d *core.TimeFamily
	soft        []bool // nil without soft marks
}

// check collects every declaration-level error accumulated so far and,
// when there is none, returns the resolved body.
func (b *SystemBuilder) check() (*body, error) {
	errs := append([]error(nil), b.errs...)
	if !b.levelsSet {
		errs = append(errs, errors.New("qos: no quality levels declared (call Levels)"))
	}
	if len(b.actions) == 0 {
		errs = append(errs, errors.New("qos: no actions declared"))
	}
	res := &body{edges: make([][2]core.ActionID, 0, len(b.edges))}
	for _, e := range b.edges {
		from, ok1 := b.index[e[0]]
		to, ok2 := b.index[e[1]]
		if !ok1 {
			errs = append(errs, fmt.Errorf("qos: edge %s -> %s references unknown action %q", e[0], e[1], e[0]))
		}
		if !ok2 {
			errs = append(errs, fmt.Errorf("qos: edge %s -> %s references unknown action %q", e[0], e[1], e[1]))
		}
		res.edges = append(res.edges, [2]core.ActionID{from, to})
	}
	times, errs := b.resolve(b.times, "execution time for", errs)
	deadlines, errs := b.resolve(b.deadlines, "deadline for", errs)
	var seen map[string]bool
	for _, a := range b.soft {
		if id, ok := b.index[a]; ok {
			if res.soft == nil {
				res.soft = make([]bool, len(b.actions))
			}
			res.soft[id] = true
		} else if !seen[a] {
			if seen == nil {
				seen = make(map[string]bool)
			}
			seen[a] = true
			errs = append(errs, fmt.Errorf("qos: soft-deadline mark on unknown action %q", a))
		}
	}
	if b.levelsSet {
		L, m := len(b.levels), len(b.actions)
		res.cav = core.NewTimeFamily(b.levels, m, 0)
		res.cwc = core.NewTimeFamily(b.levels, m, 0)
		res.d = core.NewTimeFamily(b.levels, m, core.Inf)
		for a, name := range b.actions {
			row := a * (L + 1)
			for qi, q := range b.levels {
				if t := times.at(row, qi, L); t != nil {
					res.cav.Fns[qi][a], res.cwc.Fns[qi][a] = t[0], t[1]
				} else if !b.zeroTimes {
					errs = append(errs, fmt.Errorf("qos: action %q has no execution time at level %d", name, q))
				}
				if dl := deadlines.at(row, qi, L); dl != nil {
					res.d.Fns[qi][a] = dl[0]
				}
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return res, nil
}

// slab holds resolved declarations action-major: action a's entry at
// level index qi is slot a·(L+1)+qi, and its wildcard slot a·(L+1)+L.
type slab struct {
	v   [][2]core.Cycles
	set []bool
}

// at returns the entry of level index qi in the action row starting at
// row, falling back to the row's wildcard, or nil when neither is set.
func (s slab) at(row, qi, L int) *[2]core.Cycles {
	if s.set[row+qi] {
		return &s.v[row+qi]
	}
	if s.set[row+L] {
		return &s.v[row+L]
	}
	return nil
}

// resolve writes decls into a slab, a later declaration of a slot
// overriding an earlier one, and appends to errs, once per (action,
// level), those that name an unknown action or a level outside the
// range; what names the offence in each error.
func (b *SystemBuilder) resolve(decls []decl, what string, errs []error) (slab, []error) {
	L := len(b.levels)
	s := slab{
		v:   make([][2]core.Cycles, len(b.actions)*(L+1)),
		set: make([]bool, len(b.actions)*(L+1)),
	}
	var seen map[decl]bool
	for _, d := range decls {
		a, known := b.index[d.action]
		qi := L
		if d.level != wildcard && b.levelsSet {
			qi = b.levels.Index(d.level)
		}
		if known && qi >= 0 {
			slot := int(a)*(L+1) + qi
			s.v[slot], s.set[slot] = d.v, true
			continue
		}
		key := decl{action: d.action, level: d.level}
		if seen[key] {
			continue
		}
		if seen == nil {
			seen = make(map[decl]bool)
		}
		seen[key] = true
		if !known {
			errs = append(errs, fmt.Errorf("qos: %s unknown action %q", what, d.action))
		}
		if qi < 0 {
			errs = append(errs, fmt.Errorf("qos: %s action %q at level %d outside range %v", what, d.action, d.level, b.levels))
		}
	}
	return s, errs
}

// Build validates everything accumulated so far and materialises the
// parameterized real-time system. All collected errors are returned
// together (errors.Join), each naming the offending action and level.
func (b *SystemBuilder) Build() (*core.System, error) {
	res, err := b.check()
	if err != nil {
		return nil, err
	}
	g, err := core.NewGraph(b.actions, res.edges)
	if err != nil {
		return nil, err
	}
	// NewIteratedSystem tiles the body's times, deadlines and soft
	// marks over the iterations.
	return core.NewIteratedSystem(g, b.iterate, b.levels, res.cav, res.cwc, res.d, res.soft)
}

// BuildProgram builds the system and precomputes its controller program
// in one step — the input to NewRuntime and Program.NewController.
func (b *SystemBuilder) BuildProgram(opts ...core.Option) (*core.Program, error) {
	sys, err := b.Build()
	if err != nil {
		return nil, err
	}
	return core.NewProgram(sys, opts...)
}
