package mpeg

import (
	"fmt"

	"repro/internal/core"
)

// Figure 5 of the paper: execution times in CPU cycles on the 8 GHz
// XiRisc platform. Motion_Estimate depends on the quality level; all
// other actions are quality independent.

// NumLevels is the number of quality levels (0..7).
const NumLevels = 8

// Levels is the quality level set Q = {0..7}.
func Levels() core.LevelSet { return core.NewLevelRange(0, NumLevels-1) }

// MotionEstimateTimes is the quality-dependent row of figure 5.
var MotionEstimateTimes = [NumLevels]struct{ Av, Wc core.Cycles }{
	{215, 1_000},
	{30_000, 100_000},
	{50_000, 200_000},
	{95_000, 350_000},
	{110_000, 500_000},
	{120_000, 1_200_000},
	{150_000, 1_200_000},
	{200_000, 1_500_000},
}

// FixedTimes gives the quality-independent rows of figure 5, indexed by
// the action constants.
var FixedTimes = [NumActions]struct{ Av, Wc core.Cycles }{
	GrabMacroBlock:                 {12_000, 24_000},
	MotionEstimate:                 {0, 0}, // quality dependent; see above
	DiscreteCosineTransform:        {16_000, 16_000},
	Quantize:                       {6_000, 13_000},
	IntraPredict:                   {4_000, 4_000},
	Compress:                       {5_000, 50_000},
	InverseQuantize:                {4_000, 5_000},
	InverseDiscreteCosineTransform: {20_000, 50_000},
	Reconstruct:                    {10_000, 13_000},
}

// Times returns the figure 5 (average, worst-case) pair for an action at
// a quality level.
func Times(action int, q core.Level) (av, wc core.Cycles) {
	if action == MotionEstimate {
		e := MotionEstimateTimes[q]
		return e.Av, e.Wc
	}
	e := FixedTimes[action]
	return e.Av, e.Wc
}

// MacroblockAv returns the average cycles for one whole macroblock at
// quality q (sum of figure 5 averages).
func MacroblockAv(q core.Level) core.Cycles {
	var s core.Cycles
	for a := 0; a < NumActions; a++ {
		av, _ := Times(a, q)
		s = s.AddSat(av)
	}
	return s
}

// MacroblockWc returns the worst-case cycles for one whole macroblock at
// quality q.
func MacroblockWc(q core.Level) core.Cycles {
	var s core.Cycles
	for a := 0; a < NumActions; a++ {
		_, wc := Times(a, q)
		s = s.AddSat(wc)
	}
	return s
}

// SystemConfig parameterises BuildSystem.
type SystemConfig struct {
	// Macroblocks is N, the iterations of the body per frame.
	Macroblocks int
	// Budget is the initial frame time budget (deadline of the last
	// action); later frames adjust it via SetBudget.
	Budget core.Cycles
	// DecisionOverhead, when non-zero, inflates every action's Cav and
	// Cwc by the controller's per-decision cost so the safety analysis
	// accounts for instrumentation (generated controlled code pays it).
	DecisionOverhead core.Cycles
	// PerMacroblockDeadlines, when true, gives macroblock m's last
	// action the proportional deadline (m+1)/N * Budget instead of a
	// single end-of-frame deadline — the fine-grain ablation.
	PerMacroblockDeadlines bool
}

// FrameSystem couples a built parameterized system with the helpers
// needed to adjust the frame budget between frames.
type FrameSystem struct {
	// Sys is the unrolled per-frame system (N chained body iterations).
	Sys *core.System
	// Body is the 9-action body system the iterative tables compress to.
	Body *core.System
	// Iter is the constant-memory evaluator (single end-of-frame
	// deadline case); nil when PerMacroblockDeadlines is set, which
	// falls back to the generic table path.
	Iter *core.IterativeTables
	// BodyOrder is the in-body schedule order the iterative tables were
	// built with (nil for the per-macroblock-deadline variant).
	BodyOrder []core.ActionID
	Cfg       SystemConfig
	budget    core.Cycles
}

// BuildSystem constructs the parameterized real-time system for the
// treatment of one frame: the unrolled figure 2 graph with the figure 5
// time families and deadline(s) derived from the budget.
func BuildSystem(cfg SystemConfig) (*FrameSystem, error) {
	if cfg.Macroblocks <= 0 {
		return nil, fmt.Errorf("mpeg: Macroblocks must be positive, got %d", cfg.Macroblocks)
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("mpeg: Budget must be positive, got %v", cfg.Budget)
	}
	// Body-level system for the iterative (constant-memory) tables; the
	// frame system takes its times, tiled over the macroblocks.
	body, err := BodyGraph()
	if err != nil {
		return nil, err
	}
	levels := Levels()
	bcav := core.NewTimeFamily(levels, NumActions, 0)
	bcwc := core.NewTimeFamily(levels, NumActions, 0)
	for a := 0; a < NumActions; a++ {
		for _, q := range levels {
			av, wc := Times(a, q)
			bcav.Set(q, core.ActionID(a), av.AddSat(cfg.DecisionOverhead))
			bcwc.Set(q, core.ActionID(a), wc.AddSat(cfg.DecisionOverhead))
		}
	}
	bd := core.NewTimeFamily(levels, NumActions, core.Inf)
	fs := &FrameSystem{Cfg: cfg}
	fs.Body, err = core.NewSystem(body, levels, bcav, bcwc, bd)
	if err != nil {
		return nil, err
	}
	nMB := cfg.Macroblocks
	g, err := body.Unroll(nMB, true)
	if err != nil {
		return nil, err
	}
	fs.Sys, err = core.NewSystem(g, levels, bcav.Tile(nMB, 0, 0), bcwc.Tile(nMB, 0, 0), bd.Tile(nMB, 0, 0))
	if err != nil {
		return nil, err
	}
	if !cfg.PerMacroblockDeadlines {
		fs.BodyOrder = core.EDFSchedule(body, bcwc.AtIndex(0), bd.AtIndex(0))
		fs.Iter, err = core.NewIterativeTables(fs.Body, fs.BodyOrder, cfg.Macroblocks, cfg.Budget)
		if err != nil {
			return nil, err
		}
	}
	fs.applyBudget(cfg.Budget)
	return fs, nil
}

// applyBudget rewrites the deadline family in place for a new budget.
func (fs *FrameSystem) applyBudget(b core.Cycles) {
	nMB := fs.Cfg.Macroblocks
	d := fs.Sys.D
	for _, q := range fs.Sys.Levels {
		if fs.Cfg.PerMacroblockDeadlines {
			for m := 0; m < nMB; m++ {
				dl := core.Cycles(int64(b) * int64(m+1) / int64(nMB))
				d.Set(q, JoinID(Reconstruct, m), dl)
				d.Set(q, JoinID(Compress, m), dl)
			}
		} else {
			// The frame deadline binds its final actions. Reconstruct
			// and Compress are the sinks of the last macroblock.
			d.Set(q, JoinID(Reconstruct, nMB-1), b)
			d.Set(q, JoinID(Compress, nMB-1), b)
		}
	}
	if fs.Iter != nil {
		fs.Iter.SetBudget(b)
	}
	fs.budget = b
}

// Budget returns the currently applied frame budget.
func (fs *FrameSystem) Budget() core.Cycles { return fs.budget }

// SetBudget applies a new frame budget and re-targets the attached
// controller (nil for the constant baseline). Cost depends on the
// configuration:
//
//   - Iterative tables (the default single end-of-frame deadline case,
//     controller built over fs.Iter): O(1), the evaluator's budget
//     field is the only state.
//   - Per-macroblock deadlines (any controller not over fs.Iter): the
//     proportional deadlines scale (non-uniformly) with the budget, so
//     the controller re-targets through Controller.Retarget, a table
//     rebuild.
//
// A budget the controller refuses (Retarget's error, such as one below
// the hard-feasible minimum) is rolled back: the previous budget and its
// deadlines stay applied, and the controller keeps its program.
func (fs *FrameSystem) SetBudget(b core.Cycles, ctrl *core.Controller) error {
	if b == fs.budget {
		return nil
	}
	prev := fs.budget
	fs.applyBudget(b)
	if ctrl == nil {
		return nil
	}
	if fs.Iter != nil && ctrl.Program().Evaluator() == fs.Iter {
		return nil // fs.Iter.SetBudget in applyBudget already re-targeted it
	}
	if err := ctrl.Retarget(fs.Sys.D); err != nil {
		fs.applyBudget(prev)
		return err
	}
	return nil
}

// WorstCaseBudget returns the worst-case cycles to encode a whole frame
// at level q (including instrumentation overhead): the budget that
// makes level q safe from the first decision to the last.
func (fs *FrameSystem) WorstCaseBudget(q core.Level) core.Cycles {
	per := MacroblockWc(q).AddSat(fs.Cfg.DecisionOverhead.MulSat(core.Cycles(NumActions)))
	return per.MulSat(core.Cycles(fs.Cfg.Macroblocks))
}

// MinFeasibleBudget returns the smallest budget for which the frame is
// schedulable at qmin under worst-case times (including instrumentation
// overhead): below this, hard guarantees are impossible.
func (fs *FrameSystem) MinFeasibleBudget() core.Cycles {
	return fs.WorstCaseBudget(0)
}

// MaxUsefulBudget returns the worst-case budget of the top quality
// level: cycles granted beyond it cannot raise quality further. With
// the paper's timing tables this saturates far above a frame period —
// worst cases are heavy-tailed — so mixer shares typically cap at the
// period first.
func (fs *FrameSystem) MaxUsefulBudget() core.Cycles {
	return fs.WorstCaseBudget(fs.Sys.Levels.Max())
}
