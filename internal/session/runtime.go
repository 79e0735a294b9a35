package session

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/platform"
)

// Runtime is a goroutine-safe multi-stream server over one controlled
// system: the expensive precomputed state (validation, EDF schedule,
// constraint tables — a core.Program) is built once and shared, while
// each concurrent stream gets its own cheap Session: one allocation
// holding the session, its tally and its controller.
//
// Acquire/Release (and RunCycle, which pairs them around one cycle)
// are safe to call from any number of goroutines; each Session itself
// stays single-stream.
//
// Each acquired session counts the cycles it serves in counters of its
// own, so two streams' cycles write no shared counter. Stats sums the
// live sessions and the released ones.
type Runtime struct {
	prog *core.Program

	quarantined atomic.Int64

	// mu guards live, the tallies of the sessions acquired and not yet
	// released, and retired, the totals of the released ones. Release
	// removes a tally from live and folds it into retired under mu, so
	// Stats counts every cycle exactly once.
	mu      sync.Mutex
	live    []*tally
	retired RuntimeStats
}

// tally counts the cycles one session serves and their controller
// totals. The counters are atomics so that Stats can read them while
// the stream serves; slot is the session's index in the runtime's live
// registry, guarded by the runtime's mu.
type tally struct {
	cycles, actions, fallbacks, misses     atomic.Int64
	levelSum, levelChanges, candidateEvals atomic.Int64
	slot                                   int
}

// add counts one finished cycle. Its controller statistics are those
// since the session's last boundary (acquire or Reset): the cycle's
// own, unless Next ran part of it before Run. A healthy cycle has no
// fallback and no miss, so it pays no locked add for either.
func (t *tally) add(res *core.CycleResult) {
	t.cycles.Add(1)
	t.actions.Add(int64(res.Steps))
	if res.Fallbacks != 0 {
		t.fallbacks.Add(int64(res.Fallbacks))
	}
	if res.Misses != 0 {
		t.misses.Add(int64(res.Misses))
	}
	t.levelSum.Add(res.Stats.LevelSum)
	t.levelChanges.Add(int64(res.Stats.LevelChanges))
	t.candidateEvals.Add(int64(res.Stats.CandidateEval))
}

// addTo adds the counters into a stats snapshot.
func (t *tally) addTo(st *RuntimeStats) {
	st.Cycles += t.cycles.Load()
	st.Actions += t.actions.Load()
	st.Fallbacks += t.fallbacks.Load()
	st.Misses += t.misses.Load()
	st.LevelSum += t.levelSum.Load()
	st.LevelChanges += t.levelChanges.Load()
	st.CandidateEvals += t.candidateEvals.Load()
}

// tallied is an acquired session, its tally and its controller, in
// one allocation. Blocks of concurrent streams sit side by side in the
// heap, and each stream writes its tally and controller on every cycle
// from its own goroutine. A block (376 bytes) takes the allocator's
// 384-byte size class, six 64-byte cache lines, so every block starts
// on a line boundary and no two streams write one line
// (TestRuntimeBlocksOwnCacheLines).
type tallied struct {
	s Session
	t tally
	c core.Controller
}

// NewRuntime validates the system, precomputes its controller program
// with the given options and returns the serving runtime. Every session
// it serves decides over that one program.
func NewRuntime(sys *core.System, opts ...core.Option) (*Runtime, error) {
	prog, err := core.NewProgram(sys, opts...)
	if err != nil {
		return nil, err
	}
	return NewRuntimeFromProgram(prog), nil
}

// NewRuntimeFromProgram serves an already-built program (e.g. one with
// a custom evaluator).
func NewRuntimeFromProgram(prog *core.Program) *Runtime {
	return &Runtime{prog: prog}
}

// Program returns the shared precomputed state.
func (r *Runtime) Program() *core.Program { return r.prog }

// System returns the served system.
func (r *Runtime) System() *core.System { return r.prog.System() }

// BudgetSource yields the elapsed-time handicap a budgeted stream must
// charge its controller at every cycle start — the CPU cycles the other
// streams sharing the budget consume per period. LeaseDelay returns it
// and renews the stream's liveness lease, or returns an error once the
// share is revoked (a leased mixer.Grant reaped for liveness): the
// session then fails fast instead of serving on a reclaimed share.
// mixer.Grant implements it; a share that cannot be revoked never
// returns an error.
type BudgetSource interface {
	LeaseDelay() (core.Cycles, error)
}

// Acquire hands out a fresh Session for one stream, over a fresh
// controller at a cycle boundary. Observers are per-acquire: they see
// only this stream. Controller configuration (mode, smoothness,
// evaluator) is fixed for the whole runtime at NewRuntime.
func (r *Runtime) Acquire(obs ...Observer) *Session {
	h := new(tallied)
	r.prog.InitController(&h.c)
	h.s.ctrl = &h.c
	h.s.obs = obs
	h.s.owner.Store(r)
	h.s.tally = &h.t
	r.mu.Lock()
	h.t.slot = len(r.live)
	r.live = append(r.live, &h.t)
	r.mu.Unlock()
	return &h.s
}

// AcquireBudgeted hands out a Session whose cycles run under a shared
// budget share: at every cycle boundary (including this acquire) the
// session charges src.LeaseDelay() to its controller, so admissibility
// sees only the stream's share of the period, and a revoked share makes
// the session terminal. Typical use is an admitted mixer.Grant:
//
//	g, err := budget.Admit(spec)
//	s := rt.AcquireBudgeted(g)
//	defer func() { rt.Release(s); g.Release() }()
func (r *Runtime) AcquireBudgeted(src BudgetSource, obs ...Observer) *Session {
	s := r.Acquire(obs...)
	s.budget = src
	s.applyBudget()
	return s
}

// Release detaches the session from the runtime and folds its tally
// into the released totals. The session must not be used afterwards;
// its controller is never handed out again. Releasing a session that
// came from a different runtime (or none) is a no-op that leaves the
// session usable, and double releases — even concurrent ones — detach
// the session exactly once.
func (r *Runtime) Release(s *Session) {
	if s == nil || !s.owner.CompareAndSwap(r, nil) {
		return
	}
	t := s.tally
	r.mu.Lock()
	last := r.live[len(r.live)-1]
	r.live[t.slot], last.slot = last, t.slot
	r.live[len(r.live)-1] = nil
	r.live = r.live[:len(r.live)-1]
	t.addTo(&r.retired)
	r.mu.Unlock()
	s.ctrl, s.budget, s.tally = nil, nil, nil
}

// RunCycle serves one full cycle of one stream: acquire, run the
// workload, release.
func (r *Runtime) RunCycle(w platform.Workload, obs ...Observer) (core.CycleResult, error) {
	s := r.Acquire(obs...)
	defer r.Release(s)
	return s.Run(w)
}

// RuntimeStats is a snapshot of the served totals.
type RuntimeStats struct {
	// ActiveSessions is the number of sessions currently acquired.
	ActiveSessions int64
	// Cycles, Actions count completed Session.Run cycles and their
	// actions across all streams.
	Cycles, Actions int64
	// Fallbacks, Misses aggregate the corresponding per-cycle counts.
	// Every counted action is one controller decision, so Actions and
	// Fallbacks are also the served cycles' decision and decision
	// fallback totals.
	Fallbacks, Misses int64
	// LevelSum, LevelChanges, CandidateEvals aggregate the served
	// cycles' core.ControllerStats fields of those names (LevelSum /
	// Actions is the mean level index of every decision served).
	LevelSum, LevelChanges, CandidateEvals int64
	// Quarantined counts controllers poisoned by workload panics
	// (Session.Run recovered, quarantined the instance and retired the
	// session).
	Quarantined int64
}

// Stats returns a snapshot of the served totals. Cycles driven manually
// (Next/Completed without Run) are not counted.
func (r *Runtime) Stats() RuntimeStats {
	r.mu.Lock()
	st := r.retired
	st.ActiveSessions = int64(len(r.live))
	for _, t := range r.live {
		t.addTo(&st)
	}
	r.mu.Unlock()
	st.Quarantined = r.quarantined.Load()
	return st
}
