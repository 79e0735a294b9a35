package core

import (
	"math/rand"
	"testing"
)

// stepRecord is what one step of a cycle shows through the controller's
// public surface: the decision, then the elapsed time at the decision
// and after the completion.
type stepRecord struct {
	d                  Decision
	tDecision, tFinish Cycles
}

// recordingObserver captures a stepRecord per step of a cycle run on c.
type recordingObserver struct {
	c     *Controller
	steps []stepRecord
}

func (o *recordingObserver) OnDecision(d Decision) {
	o.steps = append(o.steps, stepRecord{d: d, tDecision: o.c.Elapsed()})
}

func (o *recordingObserver) OnFallback(Decision) {}

func (o *recordingObserver) OnCompletion(_ Decision, _, _ Cycles) {
	o.steps[len(o.steps)-1].tFinish = o.c.Elapsed()
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

// TestDifferentialControllerReuse holds a controller that is Reset and
// reused across cycles to a fresh controller per cycle on the same
// inputs: every step must show the same decision and elapsed time, and
// every cycle the same CycleResult. The decisions are the quality
// assignment θ, so equal decisions are equal assignments. The fresh side is
// built from the original system and options and replays every
// Retarget the reused side saw between its cycles, so it carries the
// same configuration history and no cycle history. The mix covers Hard
// and Soft mode, WithMaxStep, contract-breaking costs (fallbacks), and
// Retarget's rebuilds.
func TestDifferentialControllerReuse(t *testing.T) {
	const cycles = 10
	var fallbacks, retargets int
	for seed := int64(1); seed <= 48; seed++ {
		r := rand.New(rand.NewSource(seed))
		sys := randomUniformOrderSystem(r, 10, 6)
		mode := Hard
		if seed%2 == 0 {
			mode = Soft
		}
		maxStep := 0
		if seed%3 == 0 {
			maxStep = 1 + r.Intn(2)
		}
		opts := []Option{WithMode(mode), WithMaxStep(maxStep)}

		// A small set of deadline families to retarget through: the
		// base, a uniform displacement of it, and a loosening of one
		// action's finite deadline (non-uniform as soon as another
		// deadline is finite).
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
		var ops []*TimeFamily
		for cycle := 0; cycle < cycles; cycle++ {
			if cycle > 0 {
				reused.Reset()
				if r.Intn(2) == 0 {
					family, prev := families[r.Intn(len(families))], reused.Program()
					if err := reused.Retarget(family); err != nil {
						t.Fatalf("seed %d cycle %d: Retarget: %v", seed, cycle, err)
					}
					if reused.Program() == prev {
						t.Fatalf("seed %d cycle %d: Retarget did not rebuild", seed, cycle)
					}
					ops = append(ops, family)
					retargets++
				}
			}
			fresh := mustController(t, sys, opts...)
			for k, family := range ops {
				if err := fresh.Retarget(family); err != nil {
					t.Fatalf("seed %d cycle %d: replaying Retarget %d on a fresh controller: %v", seed, cycle, k, err)
				}
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
				if g != w {
					t.Fatalf("seed %d cycle %d step %d: reused %+v, fresh %+v", seed, cycle, k, g, w)
				}
			}
			if gotRes != wantRes {
				t.Fatalf("seed %d cycle %d: CycleResult reused %+v, fresh %+v", seed, cycle, gotRes, wantRes)
			}
			fallbacks += gotRes.Fallbacks
		}
	}
	// The mix must actually reach the paths it claims to cover.
	if fallbacks == 0 || retargets == 0 {
		t.Fatalf("coverage: %d fallbacks, %d retargets; want both > 0", fallbacks, retargets)
	}
}
