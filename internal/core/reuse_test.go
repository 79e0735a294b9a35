package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// A reuseOp is a between-cycles reconfiguration: a ShiftDeadlines by
// delta, or (family non-nil) a Retarget to family.
type reuseOp struct {
	delta  Cycles
	family *TimeFamily
}

func (op reuseOp) apply(c *Controller) error {
	if op.family != nil {
		return c.Retarget(op.family)
	}
	return c.ShiftDeadlines(op.delta)
}

// stepRecord is what one step of a cycle shows through the controller's
// public surface: the decision, then the assignment and elapsed time at
// the decision and after the completion.
type stepRecord struct {
	d                    Decision
	atDecision, atFinish Assignment
	tDecision, tFinish   Cycles
}

// recordingObserver captures a stepRecord per step of a cycle run on c.
type recordingObserver struct {
	c     *Controller
	steps []stepRecord
}

func (o *recordingObserver) OnDecision(d Decision) {
	o.steps = append(o.steps, stepRecord{d: d, atDecision: o.c.Assignment(), tDecision: o.c.Elapsed()})
}

func (o *recordingObserver) OnFallback(Decision) {}

func (o *recordingObserver) OnCompletion(_ Decision, _, _ Cycles) {
	s := &o.steps[len(o.steps)-1]
	s.atFinish, s.tFinish = o.c.Assignment(), o.c.Elapsed()
}

// runRecorded runs one cycle of c against costs drawn from a generator
// seeded with drawSeed, preempting pre cycles first, and returns the
// cycle's result and step records. Both sides of the differential draw
// from the same seed, so identical decisions see identical costs.
func runRecorded(c *Controller, sys *System, drawSeed int64, pre Cycles) (CycleResult, []stepRecord, error) {
	r := rand.New(rand.NewSource(drawSeed))
	c.Preempt(pre)
	obs := &recordingObserver{c: c}
	res, err := RunCycleObserved(c, obs, func(a ActionID, q Level) Cycles {
		actual := actualDraw(r, sys, a, q, 0)
		if r.Intn(5) == 0 {
			// Break the worst-case contract now and then: the
			// following decisions must fall back to qmin.
			actual = actual*3 + Cycles(r.Intn(400))
		}
		return actual
	})
	return res, obs.steps, err
}

// checkAssignmentOracle holds each step's assignment after completion to
// the decisions themselves: every executed position at its own decided
// level, every later one at the last decided level.
func checkAssignmentOracle(c *Controller, steps []stepRecord) error {
	sched := c.Schedule()
	for k, s := range steps {
		for j, a := range sched {
			want := s.d.Level
			if j <= k {
				want = steps[j].d.Level
			}
			if s.atFinish[a] != want {
				return fmt.Errorf("step %d: assignment of position %d (action %d) is %d, want %d", k, j, a, s.atFinish[a], want)
			}
		}
	}
	return nil
}

// TestDifferentialControllerReuse holds a controller that is Reset and
// reused across cycles to a fresh controller per cycle on the same
// inputs: every step must show the same decision, assignment and
// elapsed time, and every cycle the same CycleResult. The fresh side is
// built from the original system and options and replays every
// ShiftDeadlines and Retarget the reused side saw between its cycles,
// so it carries the same configuration history and no cycle history.
// The mix covers Hard and Soft mode, the table and direct paths,
// WithMaxStep, contract-breaking costs (fallbacks), and all three
// Retarget paths (uniform shift, cache hit, rebuild) through a shared
// ProgramCache.
func TestDifferentialControllerReuse(t *testing.T) {
	const cycles = 10
	var fallbacks, shifts, cycled int
	for seed := int64(1); seed <= 48; seed++ {
		r := rand.New(rand.NewSource(seed))
		sys := randomUniformOrderSystem(r, 10, 6)
		mode := Hard
		if seed%2 == 0 {
			mode = Soft
		}
		tables := seed%4 < 2
		maxStep := 0
		if seed%3 == 0 {
			maxStep = 1 + r.Intn(2)
		}
		pc := NewProgramCache(0)
		opts := []Option{WithMode(mode), WithMaxStep(maxStep), WithTables(tables), WithProgramCache(pc)}

		// A small set of deadline families to retarget through, so
		// that later retargets hit the cache: the base, a uniform
		// displacement of it, and a loosening of one action's finite
		// deadline (non-uniform as soon as another deadline is finite).
		shifted := sys.D.Clone()
		loose := sys.D.Clone()
		grow := Cycles(5 + r.Intn(40))
		target := ActionID(r.Intn(sys.Graph.Len()))
		for qi := range shifted.Fns {
			for a := range shifted.Fns[qi] {
				if !shifted.Fns[qi][a].IsInf() {
					shifted.Fns[qi][a] += grow
				}
			}
			if !loose.Fns[qi][target].IsInf() {
				loose.Fns[qi][target] += grow
			}
		}
		families := []*TimeFamily{sys.D.Clone(), shifted, loose}

		reused := mustController(t, sys, opts...)
		if got := reused.Program().UsesTables(); got != tables {
			t.Fatalf("seed %d: UsesTables = %v, want %v", seed, got, tables)
		}
		var ops []reuseOp
		for cycle := 0; cycle < cycles; cycle++ {
			if cycle > 0 {
				reused.Reset()
				var op reuseOp
				switch k := r.Intn(4); {
				case k == 0 && tables:
					op = reuseOp{delta: Cycles(r.Intn(90) - 30)}
				case k >= 2:
					op = reuseOp{family: families[r.Intn(len(families))]}
				}
				if op.family != nil || op.delta != 0 {
					err := op.apply(reused)
					if err != nil && op.family != nil {
						t.Fatalf("seed %d cycle %d: Retarget: %v", seed, cycle, err)
					}
					if err == nil {
						ops = append(ops, op)
						if op.family == nil {
							shifts++
						}
					}
				}
			}
			fresh := mustController(t, sys, opts...)
			for k, op := range ops {
				if err := op.apply(fresh); err != nil {
					t.Fatalf("seed %d cycle %d: replaying op %d on a fresh controller: %v", seed, cycle, k, err)
				}
			}
			if reused.DeadlineShift() != fresh.DeadlineShift() {
				t.Fatalf("seed %d cycle %d: deadline shift %v vs fresh %v", seed, cycle, reused.DeadlineShift(), fresh.DeadlineShift())
			}

			drawSeed := seed*1000 + int64(cycle)
			pre := Cycles(0)
			if r.Intn(3) == 0 {
				pre = Cycles(r.Intn(120))
			}
			gotRes, got, errR := runRecorded(reused, sys, drawSeed, pre)
			wantRes, want, errF := runRecorded(fresh, sys, drawSeed, pre)
			if errR != nil || errF != nil {
				t.Fatalf("seed %d cycle %d: run errors %v (reused) and %v (fresh)", seed, cycle, errR, errF)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d cycle %d: %d steps reused, %d fresh", seed, cycle, len(got), len(want))
			}
			for k := range got {
				g, w := got[k], want[k]
				if g.d != w.d || g.tDecision != w.tDecision || g.tFinish != w.tFinish ||
					!slices.Equal(g.atDecision, w.atDecision) || !slices.Equal(g.atFinish, w.atFinish) {
					t.Fatalf("seed %d cycle %d step %d: reused %+v, fresh %+v", seed, cycle, k, g, w)
				}
			}
			if gotRes != wantRes {
				t.Fatalf("seed %d cycle %d: CycleResult reused %+v, fresh %+v", seed, cycle, gotRes, wantRes)
			}
			if err := checkAssignmentOracle(reused, got); err != nil {
				t.Fatalf("seed %d cycle %d: reused controller: %v", seed, cycle, err)
			}
			fallbacks += gotRes.Fallbacks
		}
		if hits, _ := pc.Stats(); hits > 0 {
			cycled++
		}
	}
	// The mix must actually reach the paths it claims to cover.
	if fallbacks == 0 || shifts == 0 || cycled == 0 {
		t.Fatalf("coverage: %d fallbacks, %d accepted ShiftDeadlines, %d seeds with cache hits; want all > 0", fallbacks, shifts, cycled)
	}
}
