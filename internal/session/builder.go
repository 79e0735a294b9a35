// Package session is the serving layer of the QoS library, the substance
// behind the public qos.SystemBuilder / qos.Session / qos.Runtime API:
//
//   - SystemBuilder accumulates the whole model of a controlled
//     application — actions, precedence edges, quality levels, per-level
//     execution times, deadlines — in one fluent value and validates it
//     into a core.System with errors that name the offending action and
//     level. It also absorbs the codegen text-model format, so ".qos"
//     files build Systems directly (ParseModel / LoadModel).
//   - Session is the per-stream run loop over a controller: Next /
//     Completed, a Run(workload) convenience loop, Reset for cycle
//     reuse, and pluggable Observer hooks (on-decision, on-completion,
//     on-fallback) wired to internal/trace.
//   - Runtime is a goroutine-safe multi-stream server: one System's
//     precomputed tables (a core.Program) shared across any number of
//     concurrent Sessions, recycled through a sync.Pool.
package session

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// timeKey addresses a (action, level) table entry; level -1 means "all
// levels" (the wildcard).
type timeKey struct {
	action string
	level  core.Level
}

const wildcard core.Level = -1

// SystemBuilder accumulates a parameterized real-time system in one
// place and validates it as a whole. All methods return the builder for
// chaining; errors are collected and reported together by Build, each
// naming the offending action and quality level.
type SystemBuilder struct {
	levels    core.LevelSet
	levelsSet bool
	actions   []string
	index     map[string]int
	edges     [][2]string
	times     map[timeKey][2]core.Cycles
	deadlines map[timeKey]core.Cycles
	soft      map[string]bool
	iterate   int
	errs      []error
}

// NewSystemBuilder returns an empty builder.
func NewSystemBuilder() *SystemBuilder {
	return &SystemBuilder{
		index:     make(map[string]int),
		times:     make(map[timeKey][2]core.Cycles),
		deadlines: make(map[timeKey]core.Cycles),
		soft:      make(map[string]bool),
		iterate:   1,
	}
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
	b.index[name] = len(b.actions)
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
	b.times[timeKey{action, q}] = [2]core.Cycles{av, wc}
	return b
}

// TimeAll sets the execution time of action at every quality level.
func (b *SystemBuilder) TimeAll(action string, av, wc core.Cycles) *SystemBuilder {
	b.times[timeKey{action, wildcard}] = [2]core.Cycles{av, wc}
	return b
}

// Deadline sets the deadline of action at quality level q. Unset
// deadlines default to +Inf (no deadline).
func (b *SystemBuilder) Deadline(action string, q core.Level, d core.Cycles) *SystemBuilder {
	if q < 0 {
		b.fail("deadline for action %q at negative level %d", action, q)
		return b
	}
	b.deadlines[timeKey{action, q}] = d
	return b
}

// DeadlineAll sets the deadline of action at every quality level.
func (b *SystemBuilder) DeadlineAll(action string, d core.Cycles) *SystemBuilder {
	b.deadlines[timeKey{action, wildcard}] = d
	return b
}

// SoftDeadline marks the action's deadline as soft: the Quality Manager
// applies only the average constraint to it (the paper's mixed
// hard/soft case).
func (b *SystemBuilder) SoftDeadline(action string) *SystemBuilder {
	b.soft[action] = true
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

// lookup resolves (action, level) with the wildcard fallback.
func lookup[V any](m map[timeKey]V, action string, q core.Level) (V, bool) {
	if v, ok := m[timeKey{action, q}]; ok {
		return v, true
	}
	v, ok := m[timeKey{action, wildcard}]
	return v, ok
}

// Validate runs Build's declaration checks (duplicate actions, unknown
// edge endpoints, level coverage, ...) without materialising the
// system. Structural properties only the built system exposes (graph
// cycles, family monotonicity) are still reported by Build.
func (b *SystemBuilder) Validate() error {
	return b.check()
}

// check collects every declaration-level error accumulated so far.
func (b *SystemBuilder) check() error {
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
		if k.level != wildcard && b.levelsSet && !b.levels.Contains(k.level) {
			errs = append(errs, fmt.Errorf("qos: execution time for action %q at level %d outside range %v", k.action, k.level, b.levels))
		}
	}
	for k := range b.deadlines {
		if _, ok := b.index[k.action]; !ok {
			errs = append(errs, fmt.Errorf("qos: deadline for unknown action %q", k.action))
		}
		if k.level != wildcard && b.levelsSet && !b.levels.Contains(k.level) {
			errs = append(errs, fmt.Errorf("qos: deadline for action %q at level %d outside range %v", k.action, k.level, b.levels))
		}
	}
	for a := range b.soft {
		if _, ok := b.index[a]; !ok {
			errs = append(errs, fmt.Errorf("qos: soft-deadline mark on unknown action %q", a))
		}
	}
	if b.levelsSet {
		for _, name := range b.actions {
			for _, q := range b.levels {
				if _, ok := lookup(b.times, name, q); !ok {
					errs = append(errs, fmt.Errorf("qos: action %q has no execution time at level %d", name, q))
				}
			}
		}
	}
	return errors.Join(errs...)
}

// Build validates everything accumulated so far and materialises the
// parameterized real-time system. All collected errors are returned
// together (errors.Join), each naming the offending action and level.
func (b *SystemBuilder) Build() (*core.System, error) {
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
	// Resolve each body action's times, deadline and soft mark once;
	// NewIteratedSystem tiles them over the iterations.
	m := len(b.actions)
	cav := core.NewTimeFamily(b.levels, m, 0)
	cwc := core.NewTimeFamily(b.levels, m, 0)
	d := core.NewTimeFamily(b.levels, m, core.Inf)
	var softMask []bool
	for a, name := range b.actions {
		for _, q := range b.levels {
			if v, ok := lookup(b.times, name, q); ok {
				cav.Set(q, core.ActionID(a), v[0])
				cwc.Set(q, core.ActionID(a), v[1])
			}
			if dl, ok := lookup(b.deadlines, name, q); ok {
				d.Set(q, core.ActionID(a), dl)
			}
		}
		if b.soft[name] {
			if softMask == nil {
				softMask = make([]bool, m)
			}
			softMask[a] = true
		}
	}
	return core.NewIteratedSystem(body, b.iterate, b.levels, cav, cwc, d, softMask)
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
