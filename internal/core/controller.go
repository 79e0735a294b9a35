package core

import (
	"errors"
	"fmt"
)

// Mode selects which constraints the Quality Manager enforces.
type Mode int

const (
	// Hard enforces both Qual_Const^av and Qual_Const^wc: no deadline is
	// ever missed provided actual times respect C ≤ Cwc_θ.
	Hard Mode = iota
	// Soft enforces only Qual_Const^av, as the paper prescribes for soft
	// deadlines: budget use is optimised but misses remain possible.
	Soft
)

func (m Mode) String() string {
	switch m {
	case Hard:
		return "hard"
	case Soft:
		return "soft"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Option configures a Program (and hence every Controller derived from
// it).
type Option func(*Program)

// WithMode selects hard (default) or soft constraint mode.
func WithMode(m Mode) Option { return func(p *Program) { p.mode = m } }

// WithMaxStep bounds the upward variation of quality between consecutive
// decisions to k levels (smoothness; downward moves stay unrestricted so
// safety is never compromised). k <= 0 means unbounded.
func WithMaxStep(k int) Option { return func(p *Program) { p.maxStep = k } }

// WithTables forces (true) or forbids (false) the precomputed-table fast
// path. By default tables are used when the system has quality-
// independent deadline order.
func WithTables(use bool) Option { return func(p *Program) { p.forceTables = boolPtr(use) } }

// WithSchedule fixes the schedule order instead of the EDF order computed
// at qmin. The sequence must be a schedule of the system's graph.
func WithSchedule(alpha []ActionID) Option {
	return func(p *Program) { p.fixedAlpha = append([]ActionID(nil), alpha...) }
}

// WithEvaluator installs a custom admissibility evaluator (e.g.
// IterativeTables) together with the schedule order it was built for.
// The caller owns re-targeting the evaluator between cycles; Retarget is
// unavailable in this configuration.
func WithEvaluator(ev Evaluator, order []ActionID) Option {
	return func(p *Program) {
		p.eval = ev
		p.fixedAlpha = append([]ActionID(nil), order...)
	}
}

// WithProgramCache attaches a ProgramCache: Controller.Retarget
// consults it before rebuilding tables for a non-uniform deadline
// change and shares what it builds through it. One cache may serve any
// number of controllers and programs over the same model.
func WithProgramCache(pc *ProgramCache) Option { return func(p *Program) { p.cache = pc } }

func boolPtr(b bool) *bool { return &b }

// Decision is the controller's choice for one step: run Action at quality
// Level. LevelIndex is Level's position in the system's ordered level
// set — the value quality accounting should use, since level *values*
// need not be contiguous (a set {0, 2, 5} is legal). Fallback is set
// when no level satisfied the constraints (the environment exceeded its
// worst-case contract) and the controller degraded to qmin.
type Decision struct {
	Action     ActionID
	Level      Level
	LevelIndex int
	Fallback   bool
}

// Program is the immutable, precomputed part of a controller: the
// validated system, the control configuration, the schedule order at
// qmin and the precomputed constraint tables. A Program is built once
// (NewProgram) and can then instantiate any number of Controllers, each
// carrying only the cheap per-cycle mutable state — this is what lets
// one system serve many concurrent streams: the expensive state is
// shared, the per-stream state is per Controller.
//
// A Program is safe for concurrent use by any number of Controllers as
// long as its evaluator is not re-targeted (Tables never is;
// IterativeTables.SetBudget must not race with decisions).
type Program struct {
	sys     *System
	mode    Mode
	maxStep int

	forceTables *bool
	fixedAlpha  []ActionID
	cache       *ProgramCache

	// useTables selects the evaluator path; otherwise every decision
	// re-derives Best_Sched per candidate level (allowedDirect).
	useTables bool
	eval      Evaluator
	// tables is eval when it is the generic *Tables, else nil; NewProgram
	// sets it once. The decision step calls it concretely: only custom
	// evaluators (IterativeTables, test oracles) decide through eval.
	tables *Tables

	alpha []ActionID // schedule order at qmin; never mutated after build
}

// NewProgram validates the system against the control configuration and
// precomputes the schedule and constraint tables. In Hard mode the
// system must be schedulable at minimal quality under worst-case times
// (the problem's precondition); otherwise an error is returned.
func NewProgram(sys *System, opts ...Option) (*Program, error) {
	p := &Program{sys: sys, maxStep: 0}
	for _, opt := range opts {
		opt(p)
	}
	if sys.Graph == nil || sys.Graph.Len() == 0 {
		return nil, errors.New("core: system has no actions; a controllable cycle needs at least one")
	}
	if p.mode == Hard && !sys.FeasibleAtQmin() {
		return nil, errors.New("core: no feasible schedule at qmin under worst-case times; hard control is impossible")
	}
	if p.fixedAlpha != nil {
		if !sys.Graph.IsSchedule(p.fixedAlpha) {
			return nil, errors.New("core: WithSchedule sequence is not a schedule of the graph")
		}
		p.alpha = p.fixedAlpha
	} else {
		p.alpha = EDFSchedule(sys.Graph, sys.Cwc.AtIndex(0), sys.D.AtIndex(0))
	}
	if p.eval != nil {
		// A custom evaluator (e.g. IterativeTables) implies the table
		// fast path along the supplied order.
		p.useTables = true
	} else {
		uniform := sys.UniformDeadlines()
		p.useTables = uniform
		if p.forceTables != nil {
			if *p.forceTables && !uniform {
				return nil, errors.New("core: tables requested but deadline order depends on quality")
			}
			p.useTables = *p.forceTables
		}
		if p.useTables {
			p.eval = NewTables(sys, p.alpha)
		}
	}
	p.tables, _ = p.eval.(*Tables)
	return p, nil
}

// System returns the program's validated system.
func (p *Program) System() *System { return p.sys }

// Mode returns the constraint mode the program enforces.
func (p *Program) Mode() Mode { return p.mode }

// UsesTables reports whether decisions run on the precomputed-table fast
// path.
func (p *Program) UsesTables() bool { return p.useTables }

// Evaluator returns the admissibility evaluator (nil on the direct
// path).
func (p *Program) Evaluator() Evaluator { return p.eval }

// Schedule returns a copy of the precomputed schedule order.
func (p *Program) Schedule() []ActionID { return append([]ActionID(nil), p.alpha...) }

// NewController instantiates the per-stream mutable state over the
// shared precomputed program. The allocation is O(|A|); everything
// expensive (validation, EDF schedule, tables) is shared.
func (p *Program) NewController() *Controller {
	c := &Controller{prog: p}
	// θ is filled with qmin once, here; resetOver leaves it alone (see
	// there for why no cycle reads a stale entry).
	c.theta = NewAssignment(p.sys.Graph.Len(), p.sys.QMin())
	c.resetOver(p)
	return c
}

// Controller incrementally computes a schedule α and quality assignment θ
// for one cycle, per the abstract control algorithm of section 2.2. Use
// Next to obtain the decision for the coming action and Completed to
// report its observed completion time; repeat until Done.
//
// A Controller is the cheap, per-stream half of the Program/Controller
// split: it holds only the cycle's mutable state and reads everything
// else from its Program. A single Controller is not safe for concurrent
// use, but any number of Controllers over one Program may run in
// parallel.
type Controller struct {
	prog *Program

	// alpha aliases prog.alpha on the table path (where the order is
	// fixed and read-only) and is a private working copy on the direct
	// path (where Best_Sched re-derives the suffix per decision).
	alpha []ActionID
	theta Assignment // committed levels for executed positions
	tail  Level      // implicit level of all unexecuted positions
	i     int
	t     Cycles
	last  int // level *index* of the previous sustained decision; -1 = none
	// dshift is the cumulative uniform deadline shift applied via
	// ShiftDeadlines or the Retarget fast path: the precomputed slacks
	// were built for deadlines dshift cycles earlier, so admissibility
	// tests see the effective time t − dshift. It survives Reset (the
	// budget persists across cycles) and is cleared by a full rebuild.
	dshift Cycles
	stats  ControllerStats
	// quarantined marks a controller whose workload panicked mid-cycle:
	// its mutable state may be arbitrarily corrupted, so pools must
	// refuse it. Deliberately NOT cleared by Reset — quarantine is
	// permanent for the instance (see Quarantine).
	quarantined bool
	// _ pads the struct to 192 bytes, three 64-byte cache lines.
	// Controllers of concurrent streams sit side by side in the heap
	// and are written on every decision from different goroutines;
	// unpadded (144 bytes) one instance's stats share a cache line with
	// the next instance's prog and alpha, which every decision reads.
	// Measured on a 2-vCPU VM (qosbench embedded, seed 42, 2 pairs):
	// without the pad the ladder's two adjacent sessions cycling at
	// once (mixer.contended_cycle_ns) take 13.1 µs against 8.2 µs.
	_ [48]byte
}

// ControllerStats accumulates per-cycle controller behaviour.
type ControllerStats struct {
	Decisions    int   // calls to Next
	Fallbacks    int   // decisions where no level was admissible
	LevelSum     int64 // sum of chosen level *indexes* (for mean quality)
	LevelChanges int   // decisions that changed level vs previous action
	// CandidateEval counts admissibility probes: the probe count the
	// evaluator's MaxAdmissibleLevel reports on the table path (1 when
	// the top candidate is admissible, ≈ log₂|Q| otherwise for Tables
	// and IterativeTables — NOT the number of levels skipped), and the
	// number of candidate levels evaluated on the direct path. Either
	// way it measures admission work per decision.
	CandidateEval int
}

// NewController builds a stand-alone controller: a fresh Program plus
// one instance over it. To serve several streams from one precomputed
// state, build the Program once and call Program.NewController per
// stream instead.
func NewController(sys *System, opts ...Option) (*Controller, error) {
	p, err := NewProgram(sys, opts...)
	if err != nil {
		return nil, err
	}
	return p.NewController(), nil
}

// Program returns the shared precomputed state this controller runs
// over.
func (c *Controller) Program() *Program { return c.prog }

// System returns the controlled system.
func (c *Controller) System() *System { return c.prog.sys }

// resetOver (re)initialises the mutable state for a fresh cycle over
// program p.
//
// θ is deliberately not refilled: entries left by the previous cycle
// are never read. Every executed position's entry is written by its own
// decision in the current cycle before the position advances;
// Assignment reads tail for every position at or after i; and
// allowedDirect evaluates θ ▷_i q, which overrides the same positions
// (OverrideFrom). So entries of positions before i are this cycle's and
// the rest are masked.
func (c *Controller) resetOver(p *Program) {
	if p.useTables {
		c.alpha = p.alpha
	} else {
		// The direct path permutes the suffix in place (Best_Sched);
		// restore the baseline order so reused instances are
		// indistinguishable from fresh ones.
		if len(c.alpha) != len(p.alpha) || &c.alpha[0] == &p.alpha[0] {
			c.alpha = append([]ActionID(nil), p.alpha...)
		} else {
			copy(c.alpha, p.alpha)
		}
	}
	c.tail = p.sys.QMin()
	c.i = 0
	c.t = 0
	c.last = -1
	c.stats = ControllerStats{}
}

// Reset prepares the controller for a new cycle, keeping configuration
// and precomputed tables.
func (c *Controller) Reset() { c.resetOver(c.prog) }

// Retarget replaces the system's deadline family (e.g. when the cycle's
// time budget changes between frames). The controller must be at a
// cycle boundary (Reset or Done).
//
// Three paths, cheapest first:
//
//  1. Uniform shift (table path only): when every finite deadline of d
//     is the current one displaced by a common Δ, every precomputed
//     slack moves by exactly Δ, so the controller only adjusts its time
//     base (see ShiftDeadlines) — no table rebuild, no revalidation
//     beyond the O(1) qmin feasibility check against the shifted slack.
//  2. Program cache: with WithProgramCache attached, a non-uniform d
//     that matches a previously built family reuses that program.
//  3. Rebuild: a fresh private Program through NewProgram, so every
//     construction-time check applies; WithTables pins the previous
//     evaluation path (a retarget that makes tables impossible is an
//     error, not a silent downgrade to direct evaluation).
//
// All paths fork this controller off its previous Program; other
// controllers sharing it are unaffected.
func (c *Controller) Retarget(d *TimeFamily) error {
	if d == nil {
		return errors.New("core: Retarget with a nil deadline family")
	}
	if c.i != 0 && !c.Done() {
		return errors.New("core: Retarget mid-cycle")
	}
	if c.prog.eval != nil && c.prog.tables == nil {
		return errors.New("core: Retarget with a custom evaluator; re-target the evaluator instead")
	}
	// Fast path: a uniform displacement of the current family keeps the
	// precomputed tables valid under a shifted time base. d must be a
	// distinct family — when the caller mutated the system's deadlines
	// in place there is nothing to diff against, and only the rebuild
	// path can help.
	if tb := c.prog.tables; tb != nil && d != c.prog.sys.D {
		if delta, uniform := UniformShift(c.prog.sys.D, d); uniform {
			shift := c.dshift.AddSat(delta)
			if c.prog.mode != Hard || tb.WcQminSlack[0].AddSat(shift) >= 0 {
				sys := *c.prog.sys
				sys.D = d
				p := *c.prog
				p.sys = &sys
				c.prog = &p
				c.dshift = shift
				c.resetOver(&p)
				return nil
			}
			// Shift made qmin infeasible along the table order; fall
			// through to the rebuild path for NewProgram's exact
			// (EDF-order) feasibility semantics and error message.
		}
	}
	// Cache before Validate: a hit proves d value-equal to a family a
	// previous rebuild already validated, so revalidation (an O(n·|Q|)
	// scan) would be pure overhead on the hit path.
	if pc := c.prog.cache; pc != nil {
		if p := pc.lookup(c.prog, d); p != nil {
			c.prog = p
			c.dshift = 0
			c.resetOver(p)
			return nil
		}
	}
	sys := *c.prog.sys
	sys.D = d
	if err := sys.Validate(); err != nil {
		return err
	}
	if c.prog.cache != nil {
		// Cached programs must own an immutable deadline snapshot: the
		// caller may keep mutating d (or the in-place family) after us.
		sys.D = d.Clone()
	}
	opts := []Option{
		WithMode(c.prog.mode),
		WithMaxStep(c.prog.maxStep),
		WithTables(c.prog.useTables),
		WithProgramCache(c.prog.cache),
	}
	if c.prog.fixedAlpha != nil {
		opts = append(opts, WithSchedule(c.prog.fixedAlpha))
	}
	p, err := NewProgram(&sys, opts...)
	if err != nil {
		return fmt.Errorf("core: Retarget: %w", err)
	}
	if pc := c.prog.cache; pc != nil {
		pc.insert(p)
	}
	c.prog = p
	c.dshift = 0
	c.resetOver(p)
	return nil
}

// ShiftDeadlines applies a uniform deadline displacement in O(1): every
// finite deadline of the system is taken to have moved by delta cycles
// (e.g. the end-of-cycle budget grew or shrank by delta), so every
// precomputed slack moves by delta and the controller merely adjusts
// the time base its admissibility tests subtract — no table rebuild, no
// allocation. The controller must be at a cycle boundary and on the
// generic table path (Tables); iterative evaluators re-target through
// IterativeTables.SetBudget instead.
//
// The controller's System().D family is NOT rewritten: the caller owns
// keeping it consistent (the MPEG layer mutates it in place before
// shifting; miss accounting reads it live). In Hard mode a delta that
// would make minimal quality infeasible is rejected with no state
// change.
//
//qos:hotpath
func (c *Controller) ShiftDeadlines(delta Cycles) error {
	if c.i != 0 && !c.Done() {
		return errors.New("core: ShiftDeadlines mid-cycle")
	}
	tb := c.prog.tables
	if tb == nil {
		return errors.New("core: ShiftDeadlines requires the precomputed-table path")
	}
	shift := c.dshift.AddSat(delta)
	if c.prog.mode == Hard && tb.WcQminSlack[0].AddSat(shift) < 0 {
		return fmt.Errorf("core: ShiftDeadlines(%v): no feasible schedule at qmin under worst-case times", delta) //qos:alloc-ok error construction on the rejected-shift exit only; the accept path is allocation-free
	}
	c.dshift = shift
	return nil
}

// DeadlineShift returns the cumulative uniform deadline shift currently
// applied to the controller's time base (0 when the tables are used at
// the deadlines they were built for).
func (c *Controller) DeadlineShift() Cycles { return c.dshift }

// Quarantine permanently marks the controller as poisoned: a workload
// panicked mid-cycle, so the instance's mutable state (position, time,
// schedule suffix) may be arbitrarily corrupted. Reset deliberately does
// NOT clear the mark — a quarantined controller must never be pooled or
// reused for another stream (session.Runtime refuses to pool it).
func (c *Controller) Quarantine() { c.quarantined = true }

// Quarantined reports whether Quarantine was ever called on this
// instance.
func (c *Controller) Quarantined() bool { return c.quarantined }

// Done reports whether all actions of the cycle have been scheduled.
func (c *Controller) Done() bool { return c.i >= len(c.alpha) }

// Elapsed returns the controller's view of elapsed time in the cycle.
func (c *Controller) Elapsed() Cycles { return c.t }

// Position returns the number of completed actions.
func (c *Controller) Position() int { return c.i }

// Schedule returns the schedule α computed so far (complete order).
func (c *Controller) Schedule() []ActionID { return append([]ActionID(nil), c.alpha...) }

// Assignment returns a copy of the current quality assignment θ:
// committed levels for executed positions, the current tail level for
// the rest.
func (c *Controller) Assignment() Assignment {
	out := c.theta.Clone()
	for j := c.i; j < len(c.alpha); j++ {
		out[c.alpha[j]] = c.tail
	}
	return out
}

// Stats returns the statistics accumulated since the last Reset.
func (c *Controller) Stats() ControllerStats { return c.stats }

// Next computes the decision for the coming action: the maximal quality
// level admissible at the current elapsed time. It implements one
// iteration of the abstract algorithm: build θ_q = θ ▷_i q for each q,
// compute α_q = Best_Sched(α, θ_q, i), and take qM = max{q |
// Qual_Const(α_q, θ_q, t, i)}.
//
//qos:hotpath
func (c *Controller) Next() (Decision, error) {
	if c.Done() {
		return Decision{}, errCycleComplete
	}
	return c.decide(), nil
}

// decide is Next on a controller whose cycle is not Done.
func (c *Controller) decide() Decision {
	p := c.prog
	levels := p.sys.Levels
	hi := len(levels) - 1
	last := c.last
	if p.maxStep > 0 && last >= 0 && last+p.maxStep < hi {
		hi = last + p.maxStep
	}
	chosen, probes := -1, 0
	if p.useTables {
		// The evaluator yields the maximal admissible level directly
		// (O(log|Q|) probes over the precomputed slack thresholds; zero
		// allocations). The generic tables are called concretely; only
		// a custom evaluator pays the interface call.
		teff := c.t
		if c.dshift != 0 {
			teff = teff.SubSat(c.dshift)
		}
		if tb := p.tables; tb != nil {
			chosen, probes = tb.MaxAdmissibleLevel(c.i, hi, teff, p.mode == Soft)
		} else {
			chosen, probes = p.eval.MaxAdmissibleLevel(c.i, hi, teff, p.mode == Soft)
		}
	} else {
		for qi := hi; qi >= 0; qi-- {
			probes++
			if c.allowedDirect(qi) { //qos:alloc-ok live path when deadline order depends on quality: no fixed order to precompute tables along, so each probe re-derives Best_Sched
				chosen = qi
				break
			}
		}
	}
	st := &c.stats
	st.Decisions++
	st.CandidateEval += probes
	d := Decision{Action: c.alpha[c.i]}
	if chosen < 0 {
		// The environment exceeded its worst-case contract (or the soft
		// system is overloaded). Degrade to qmin and continue.
		chosen = 0
		d.Fallback = true
		st.Fallbacks++
	}
	q := levels[chosen]
	// Commit: θ := θ ▷_i qM. Only the executed action's level needs to
	// be materialised; the tail is implicitly at qM (tracked in c.tail)
	// and is overridden anyway by the next decision's θ ▷ q. α is
	// unchanged (table path) or was re-derived by Best_Sched in
	// allowedDirect (direct path).
	c.theta[d.Action] = q
	c.tail = q
	d.Level = q
	d.LevelIndex = chosen
	if last >= 0 && chosen != last {
		st.LevelChanges++
	}
	st.LevelSum += int64(chosen)
	if d.Fallback {
		// A forced fallback is not a level the controller chose or
		// sustained: reset the smoothness baseline so the recovery is
		// not rate-limited (WithMaxStep) from qmin, exactly as at cycle
		// start.
		chosen = -1
	}
	c.last = chosen
	return d
}

func (c *Controller) allowedDirect(qi int) bool {
	s := c.prog.sys
	q := s.Levels[qi]
	thetaQ := c.theta.OverrideFrom(c.alpha, c.i, q)
	alphaQ := BestSched(s, c.alpha, thetaQ, c.i)
	var ok bool
	if c.prog.mode == Soft {
		ok = QualConstAv(s, alphaQ, thetaQ, c.t, c.i)
	} else {
		ok = QualConstAv(s, alphaQ, thetaQ, c.t, c.i) &&
			QualConstWc(s, alphaQ, thetaQ, c.t, c.i)
	}
	if ok {
		copy(c.alpha[c.i:], alphaQ[c.i:])
	}
	return ok
}

// Completed reports that the action returned by the last Next finished
// after consuming actual cycles. The controller advances its position and
// its elapsed-time view.
func (c *Controller) Completed(actual Cycles) {
	if actual < 0 {
		actual = 0
	}
	c.t = c.t.AddSat(actual)
	c.i++
}

// Preempt advances the controller's elapsed-time view by dt cycles
// without completing an action: CPU time consumed outside this stream —
// other streams sharing the processor under a mixer budget share, or
// any platform preemption. All subsequent admissibility tests see the
// shrunk remaining time, so quality degrades (and, in Hard mode,
// deadlines stay safe) exactly as if the cycle had started late.
//
//qos:hotpath
func (c *Controller) Preempt(dt Cycles) {
	if dt > 0 {
		c.t = c.t.AddSat(dt)
	}
}

// StepObserver receives the events of every step of a cycle run by
// RunCycleObserved: the decision, the fallback (after OnDecision) when
// no level was admissible, and the completion with the action's actual
// cost and the cycle time elapsed after it.
type StepObserver interface {
	// OnDecision fires after every controller decision.
	OnDecision(d Decision)
	// OnFallback fires (after OnDecision) when no level was admissible
	// and the controller degraded to qmin.
	OnFallback(d Decision)
	// OnCompletion fires when the decided action completes: actual is
	// the observed cost of this action, elapsed the cycle time so far.
	OnCompletion(d Decision, actual, elapsed Cycles)
}

// errCycleComplete is returned by Next and the cycle loop on a
// controller whose cycle already ran to the end.
var errCycleComplete = errors.New("core: cycle complete; Reset before reuse")

// RunCycleLeanWith drives c through a full cycle against exec, which
// runs one action at a quality and returns the actual cycles consumed.
// It is RunCycleObserved without an observer.
//
//qos:hotpath
func RunCycleLeanWith(c *Controller, exec func(ActionID, Level) Cycles) (CycleResult, error) {
	return RunCycleObserved(c, nil, exec)
}

// RunCycleObserved drives c through a full cycle against exec, which
// runs one action at a quality and returns the actual cycles consumed,
// and reports every step to obs unless it is nil. Misses are counted
// against D_θ at the controller's elapsed time. This is the one
// decision loop, shared by Controller.RunCycle, the session layer and
// the platform executor; it performs no heap allocation. The controller
// must be at the start of a cycle: one that is already Done returns the
// error Next would.
//
//qos:hotpath
func RunCycleObserved(c *Controller, obs StepObserver, exec func(ActionID, Level) Cycles) (CycleResult, error) {
	res := CycleResult{}
	if c.Done() {
		return res, errCycleComplete
	}
	sys := c.prog.sys
	for !c.Done() {
		d := c.decide()
		if obs != nil {
			obs.OnDecision(d)
			if d.Fallback {
				obs.OnFallback(d)
			}
		}
		actual := exec(d.Action, d.Level)
		deadline := sys.D.Fns[d.LevelIndex][d.Action]
		// Completed, in line: it does not inline itself (AddSat takes
		// most of the budget), and the loop runs it once per action.
		c.t = c.t.AddSat(max(actual, 0))
		c.i++
		if obs != nil {
			obs.OnCompletion(d, actual, c.t)
		}
		if !deadline.IsInf() && c.t > deadline {
			res.Misses++
		}
		if d.Fallback {
			res.Fallbacks++
		}
		res.Steps++
	}
	res.Elapsed = c.t
	res.Stats = c.stats
	return res, nil
}

// RunCycle drives a full cycle against exec; see RunCycleLeanWith.
func (c *Controller) RunCycle(exec func(ActionID, Level) Cycles) (CycleResult, error) {
	return RunCycleLeanWith(c, exec)
}

// RunFunc is RunCycle under the name a Session runs a function workload
// by, so that both are a platform.Cycler.
func (c *Controller) RunFunc(exec func(ActionID, Level) Cycles) (CycleResult, error) {
	return RunCycleLeanWith(c, exec)
}

// CycleResult summarises one controlled cycle. The realised schedule
// and assignment stay readable on the controller (Schedule, Assignment)
// until its next Reset.
type CycleResult struct {
	Steps     int // actions executed this cycle
	Elapsed   Cycles
	Misses    int
	Fallbacks int
	Stats     ControllerStats
}

// MeanLevel returns the mean chosen quality, measured in level *indexes*
// (0 = qmin). With non-contiguous level sets the raw level values would
// overstate quality and disagree with the index arithmetic of the
// controller's candidate loop; indexes keep the average comparable
// across systems. It is derived from the controller statistics, which
// cover everything since the driver's last Reset: the cycle's mean when
// the driver is Reset before each cycle.
func (r CycleResult) MeanLevel() float64 {
	if r.Stats.Decisions == 0 {
		return 0
	}
	return float64(r.Stats.LevelSum) / float64(r.Stats.Decisions)
}
