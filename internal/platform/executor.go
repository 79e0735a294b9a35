package platform

import (
	"fmt"

	"repro/internal/core"
)

// Workload models the actual execution time function C of the controlled
// system: the (unpredictable) cycles an action consumes when run at a
// quality level. Safe control requires C <= Cwc_θ; workloads may violate
// that to study contract breakage.
type Workload interface {
	Cost(a core.ActionID, q core.Level) core.Cycles
}

// WorkloadFunc adapts a function to the Workload interface.
type WorkloadFunc func(a core.ActionID, q core.Level) core.Cycles

// Cost implements Workload.
func (f WorkloadFunc) Cost(a core.ActionID, q core.Level) core.Cycles { return f(a, q) }

// Executor runs cycles of an application on a Clock, accounting for the
// controller's own decision cost the way the paper does when it reports
// the ~1.5% runtime overhead of instrumentation.
type Executor struct {
	Clock Clock
	// DecisionOverhead is charged to the clock for every controller
	// decision (quality-manager table lookups, bookkeeping).
	DecisionOverhead core.Cycles
}

// NewExecutor returns an executor on a fresh simulated clock with the
// default decision overhead.
func NewExecutor() *Executor {
	return &Executor{Clock: NewSimClock(), DecisionOverhead: DefaultDecisionOverhead}
}

// Report summarises one executed cycle (one frame, in the MPEG case).
type Report struct {
	Actions    int
	Elapsed    core.Cycles // total, including controller overhead
	WorkCycles core.Cycles // cycles spent in application actions
	CtrlCycles core.Cycles // cycles spent in controller decisions
	Misses     int
	Fallbacks  int
	LevelSum   int64 // sum of chosen level indexes (0 = qmin)
}

// MeanLevel returns the mean quality over the cycle in level indexes.
func (r Report) MeanLevel() float64 {
	if r.Actions == 0 {
		return 0
	}
	return float64(r.LevelSum) / float64(r.Actions)
}

// OverheadFraction returns controller cycles as a fraction of the total.
func (r Report) OverheadFraction() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.CtrlCycles) / float64(r.Elapsed)
}

// Cycler runs one controlled cycle at a time against exec, which runs
// one action at a quality and returns the cycles the controller should
// see it consume. *core.Controller and *session.Session satisfy it.
type Cycler interface {
	RunFunc(exec func(core.ActionID, core.Level) core.Cycles) (core.CycleResult, error)
	Elapsed() core.Cycles
}

// RunControlled executes one full cycle driven by the controller: for
// each step the controller picks (action, level), the clock pays the
// decision overhead and then the workload's cycles, and the controller
// observes the completion time on the clock. Misses are counted
// against the controller's time. The controller must be at the start
// of a cycle (fresh or Reset). A *session.Session runs the cycle as
// Session.Run does, with its observers and its panic isolation.
func (e *Executor) RunControlled(ctrl Cycler, w Workload) (Report, error) {
	rep := Report{}
	start := e.Clock.Now()
	res, err := ctrl.RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
		// Decision cost is paid before the action runs, exactly as
		// instrumented code would.
		e.Clock.Advance(e.DecisionOverhead)
		rep.CtrlCycles = rep.CtrlCycles.AddSat(e.DecisionOverhead)
		cost := w.Cost(a, q)
		e.Clock.Advance(cost)
		rep.WorkCycles = rep.WorkCycles.AddSat(cost)
		// The controller's view of time includes its own overhead: it
		// reads the cycle register, it does not introspect.
		return e.Clock.Now().SubSat(start).SubSat(ctrl.Elapsed())
	})
	if err != nil {
		return rep, fmt.Errorf("platform: controller: %w", err)
	}
	rep.Actions = res.Steps
	rep.Misses = res.Misses
	rep.Fallbacks = res.Fallbacks
	rep.LevelSum = res.Stats.LevelSum
	rep.Elapsed = e.Clock.Now().SubSat(start)
	return rep, nil
}

// RunConstant executes one cycle at a fixed quality level with no
// controller — the paper's "constant quality" industrial baseline. The
// schedule is the system's EDF order at that level; misses are counted
// against D_q.
func (e *Executor) RunConstant(sys *core.System, q core.Level, w Workload) Report {
	rep := Report{}
	start := e.Clock.Now()
	qi := sys.Levels.Index(q)
	if qi < 0 {
		panic(fmt.Sprintf("platform: level %d not in system", q))
	}
	alpha := core.EDFSchedule(sys.Graph, sys.Cwc.AtIndex(qi), sys.D.AtIndex(qi))
	d := sys.D.AtIndex(qi)
	for _, a := range alpha {
		cost := w.Cost(a, q)
		e.Clock.Advance(cost)
		rep.WorkCycles = rep.WorkCycles.AddSat(cost)
		rep.Actions++
		rep.LevelSum += int64(qi)
		elapsed := e.Clock.Now().SubSat(start)
		if !d[a].IsInf() && elapsed > d[a] {
			rep.Misses++
		}
	}
	rep.Elapsed = e.Clock.Now().SubSat(start)
	return rep
}
