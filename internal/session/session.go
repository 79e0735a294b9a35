package session

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/trace"
)

// ErrWorkloadPanic is wrapped into the error Session.Run returns when
// the workload panics mid-cycle. The session is terminal afterwards
// (Err reports it, Next/Run refuse to serve), its controller is
// quarantined — no stream is served on it again — and a leased budget
// grant is released so the share returns to the fleet.
var ErrWorkloadPanic = errors.New("session: workload panicked mid-cycle")

// Observer receives the per-stream control events of a Session: the
// decision, the fallback and the completion hooks of core.StepObserver.
// All hooks run synchronously on the stream's goroutine; observers
// attached to different Sessions never race with each other.
type Observer = core.StepObserver

// FuncObserver adapts plain functions to Observer; nil fields are
// skipped.
type FuncObserver struct {
	Decision   func(d core.Decision)
	Fallback   func(d core.Decision)
	Completion func(d core.Decision, actual, elapsed core.Cycles)
}

// OnDecision implements Observer.
func (o FuncObserver) OnDecision(d core.Decision) {
	if o.Decision != nil {
		o.Decision(d)
	}
}

// OnFallback implements Observer.
func (o FuncObserver) OnFallback(d core.Decision) {
	if o.Fallback != nil {
		o.Fallback(d)
	}
}

// OnCompletion implements Observer.
func (o FuncObserver) OnCompletion(d core.Decision, actual, elapsed core.Cycles) {
	if o.Completion != nil {
		o.Completion(d, actual, elapsed)
	}
}

// RecorderObserver feeds every completed action into a trace.Recorder —
// the profiling side of the method (observed samples become Cav/Cwc
// estimates via Recorder.Estimate). mapAction translates the running
// system's action IDs to the recorder's (e.g. unrolled frame action to
// body action); nil means identity.
func RecorderObserver(rec *trace.Recorder, mapAction func(core.ActionID) core.ActionID) Observer {
	return FuncObserver{
		Completion: func(d core.Decision, actual, _ core.Cycles) {
			a := d.Action
			if mapAction != nil {
				a = mapAction(a)
			}
			rec.Record(trace.Sample{Action: a, Level: d.Level, Cost: actual})
		},
	}
}

// EWMAObserver feeds every completed action into a trace.EWMA learner —
// the paper's future-work item, online learning of average execution
// times. mapAction is as in RecorderObserver.
func EWMAObserver(e *trace.EWMA, mapAction func(core.ActionID) core.ActionID) Observer {
	return FuncObserver{
		Completion: func(d core.Decision, actual, _ core.Cycles) {
			a := d.Action
			if mapAction != nil {
				a = mapAction(a)
			}
			e.Observe(a, d.Level, actual)
		},
	}
}

// observers fans the control events out to every observer of a session
// in attachment order. A session passes &obs to the cycle loop as its
// core.StepObserver: a pointer, so that no cycle allocates.
type observers []Observer

// OnDecision implements core.StepObserver.
func (obs *observers) OnDecision(d core.Decision) {
	for _, o := range *obs {
		o.OnDecision(d)
	}
}

// OnFallback implements core.StepObserver.
func (obs *observers) OnFallback(d core.Decision) {
	for _, o := range *obs {
		o.OnFallback(d)
	}
}

// OnCompletion implements core.StepObserver.
func (obs *observers) OnCompletion(d core.Decision, actual, elapsed core.Cycles) {
	for _, o := range *obs {
		o.OnCompletion(d, actual, elapsed)
	}
}

// SessionOption configures NewSession.
type SessionOption func(*sessionConfig)

type sessionConfig struct {
	ctrlOpts []core.Option
	obs      []Observer
}

// WithObserver attaches an observer to the session.
func WithObserver(o Observer) SessionOption {
	return func(c *sessionConfig) { c.obs = append(c.obs, o) }
}

// WithControllerOptions forwards options (mode, smoothness, tables,
// schedule, evaluator) to the controller built for a stand-alone
// session. For Runtime sessions the controller configuration is fixed
// at NewRuntime instead.
func WithControllerOptions(opts ...core.Option) SessionOption {
	return func(c *sessionConfig) { c.ctrlOpts = append(c.ctrlOpts, opts...) }
}

// Session is the per-stream run loop over one controller: Next yields
// the decision for the coming action, Completed reports its observed
// cost, Run drives a whole cycle against a workload, Reset prepares the
// next cycle. Observer hooks fire on every decision, fallback and
// completion.
//
// A Session is not safe for concurrent use; run one Session per stream
// (Runtime hands out as many as needed over one shared Program).
type Session struct {
	ctrl *core.Controller
	obs  observers

	pending    core.Decision
	hasPending bool

	// budget, when non-nil, charges the stream's shared-budget handicap
	// (LeaseDelay) to the controller at every cycle start — see
	// Runtime.AcquireBudgeted. A revoked grant fails the session fast
	// instead of serving on a reclaimed share.
	budget BudgetSource
	// termErr latches the session's terminal error — a revoked lease
	// (surfaced at Reset) or a workload panic. Once set, Next and Run
	// refuse to serve; Err exposes it.
	termErr error

	// owner is the Runtime this session was acquired from (nil for
	// stand-alone sessions). It is atomic so Runtime.Release can
	// detach the session exactly once even under a racy double
	// release, and reject sessions owned by a different runtime.
	owner atomic.Pointer[Runtime]
	// tally is where Run counts the cycles it serves: the session's own
	// when acquired from a Runtime, nil for a stand-alone session.
	tally *tally
}

// NewSession builds a stand-alone session: its own controller (and
// program) over the system. To share precomputed state across many
// streams use NewRuntime / Runtime.Acquire instead.
func NewSession(sys *core.System, opts ...SessionOption) (*Session, error) {
	var cfg sessionConfig
	for _, o := range opts {
		o(&cfg)
	}
	ctrl, err := core.NewController(sys, cfg.ctrlOpts...)
	if err != nil {
		return nil, err
	}
	return &Session{ctrl: ctrl, obs: cfg.obs}, nil
}

// Wrap adapts an existing controller into a Session — the migration
// path for callers that configured a controller directly.
func Wrap(ctrl *core.Controller, obs ...Observer) *Session {
	return &Session{ctrl: ctrl, obs: obs}
}

// Observe attaches further observers to the session.
func (s *Session) Observe(obs ...Observer) { s.obs = append(s.obs, obs...) }

// Controller exposes the underlying controller for advanced use
// (Retarget, custom evaluators). A Retarget moves the controller to a
// program of its own, so a session acquired from a Runtime that
// re-targets no longer shares the runtime's tables; the runtime's
// other sessions keep them.
func (s *Session) Controller() *core.Controller { return s.ctrl }

// System returns the controlled system.
func (s *Session) System() *core.System { return s.ctrl.System() }

// Done reports whether all actions of the cycle have been scheduled.
func (s *Session) Done() bool { return s.ctrl.Done() }

// Elapsed returns the controller's view of elapsed time in the cycle.
func (s *Session) Elapsed() core.Cycles { return s.ctrl.Elapsed() }

// Position returns the number of completed actions.
func (s *Session) Position() int { return s.ctrl.Position() }

// Stats returns the controller statistics since the last Reset.
func (s *Session) Stats() core.ControllerStats { return s.ctrl.Stats() }

// Schedule returns the schedule computed so far.
func (s *Session) Schedule() []core.ActionID { return s.ctrl.Schedule() }

// Reset prepares the session for a new cycle over the same stream. A
// budgeted session (Runtime.AcquireBudgeted) re-reads its shared-budget
// share here: the cycle opens with the other streams' CPU time already
// charged. If the share came from a leased source whose grant was
// revoked, Reset fails fast: Err reports the revocation and the next
// Next/Run returns it instead of serving on a reclaimed share. A
// terminal session (revoked or panicked) stays terminal; Reset is then
// a no-op.
func (s *Session) Reset() {
	if s.termErr != nil {
		return
	}
	s.ctrl.Reset()
	s.hasPending = false
	s.applyBudget()
}

// Err returns the session's terminal error: the grant revocation or
// workload panic that retired it, or nil while the session serves.
func (s *Session) Err() error { return s.termErr }

// applyBudget charges the stream's current shared-budget handicap to
// the controller at a cycle boundary. A leased source that reports
// revocation terminates the session instead.
func (s *Session) applyBudget() {
	if s.budget == nil {
		return
	}
	dt, err := s.budget.LeaseDelay()
	if err != nil {
		s.termErr = err
		return
	}
	s.ctrl.Preempt(dt)
}

// Preempt charges dt cycles of external CPU time (other streams,
// platform preemption) to the controller's elapsed-time view without
// completing an action.
func (s *Session) Preempt(dt core.Cycles) { s.ctrl.Preempt(dt) }

// Next computes the decision for the coming action and fires the
// on-decision (and possibly on-fallback) hooks.
//
//qos:hotpath
func (s *Session) Next() (core.Decision, error) {
	if s.termErr != nil {
		return core.Decision{}, s.termErr
	}
	d, err := s.ctrl.Next()
	if err != nil {
		return d, err
	}
	s.pending = d
	s.hasPending = true
	s.obs.OnDecision(d)
	if d.Fallback {
		s.obs.OnFallback(d)
	}
	return d, nil
}

// Completed reports the observed cost of the action returned by the
// last Next and fires the on-completion hooks.
func (s *Session) Completed(actual core.Cycles) {
	s.ctrl.Completed(actual)
	if !s.hasPending {
		return
	}
	s.hasPending = false
	s.obs.OnCompletion(s.pending, actual, s.ctrl.Elapsed())
}

// SetLean does nothing: every Run takes the one allocation-free cycle
// loop.
//
// Deprecated: the benchmark module (qosbench) is its last caller; it
// goes with the next change to that directory.
func (s *Session) SetLean(bool) {}

// Run drives one full cycle against the workload: for each step the
// controller picks (action, level), the workload returns the consumed
// cycles, and the controller observes the completion. Misses are
// counted against D_θ; observers fire on every step; the loop itself
// allocates nothing. The session must be at a cycle boundary (fresh,
// Reset, or just acquired): a session whose cycle already ran returns
// an error and the owning Runtime counts nothing.
//
// Run isolates workload panics: a panicking workload does not unwind
// into the caller. Instead the controller is quarantined (no stream is
// served on it again), the leased budget grant — if any — is
// released back to the fleet, the session turns terminal, and Run
// returns an error wrapping ErrWorkloadPanic with the panic value.
func (s *Session) Run(w platform.Workload) (core.CycleResult, error) {
	return s.RunFunc(w.Cost)
}

// RunFunc is Run with a bare function workload, under the name that
// makes a Session a platform.Cycler. It runs the cycle through
// core.RunCycleObserved on the session's controller, with the session's
// observers as one core.StepObserver, nil without observers.
func (s *Session) RunFunc(f func(core.ActionID, core.Level) core.Cycles) (res core.CycleResult, err error) {
	if s.termErr != nil {
		return core.CycleResult{}, s.termErr
	}
	defer func() {
		if cause := recover(); cause != nil {
			res = core.CycleResult{}
			err = s.quarantine(cause)
		}
	}()
	s.hasPending = false
	var obs core.StepObserver
	if len(s.obs) > 0 {
		obs = &s.obs
	}
	res, err = core.RunCycleObserved(s.ctrl, obs, f)
	if err != nil {
		return res, err
	}
	if s.tally != nil {
		s.tally.add(&res)
	}
	return res, nil
}

// quarantine retires a session whose workload panicked: the controller
// is poisoned for good (its mid-cycle state is unknowable), the grant
// is released so the share returns to the pool, and the session turns
// terminal.
func (s *Session) quarantine(cause any) error {
	s.ctrl.Quarantine()
	s.termErr = ErrWorkloadPanic
	if rt := s.owner.Load(); rt != nil {
		rt.quarantined.Add(1)
	}
	if rel, ok := s.budget.(interface{ Release() }); ok {
		rel.Release()
	}
	return fmt.Errorf("%w: %v", ErrWorkloadPanic, cause)
}
