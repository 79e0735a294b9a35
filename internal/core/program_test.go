package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestProgramSharedControllers drives several controllers instantiated
// from one Program concurrently and checks each behaves exactly like a
// stand-alone controller over the same system.
func TestProgramSharedControllers(t *testing.T) {
	sys := tinySystem(t)
	prog, err := NewProgram(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: a stand-alone controller at worst-case load.
	ref, err := NewController(sys)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunCycle(func(a ActionID, q Level) Cycles { return sys.Cwc.At(q, a) })
	if err != nil {
		t.Fatal(err)
	}

	const streams = 8
	var wg sync.WaitGroup
	results := make([]CycleResult, streams)
	errs := make([]error, streams)
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := prog.NewController()
			for cycle := 0; cycle < 50; cycle++ {
				c.Reset()
				res, err := c.RunCycle(func(a ActionID, q Level) Cycles { return sys.Cwc.At(q, a) })
				if err != nil {
					errs[s] = err
					return
				}
				results[s] = res
			}
		}(s)
	}
	wg.Wait()
	for s := 0; s < streams; s++ {
		if errs[s] != nil {
			t.Fatalf("stream %d: %v", s, errs[s])
		}
		if results[s].Misses != want.Misses || results[s].Elapsed != want.Elapsed ||
			results[s].MeanLevel() != want.MeanLevel() {
			t.Fatalf("stream %d diverged from stand-alone controller: %+v vs %+v", s, results[s], want)
		}
	}
}

// TestControllerResetRestoresSchedule verifies that reuse after Reset is
// indistinguishable from a fresh instance.
func TestControllerResetRestoresSchedule(t *testing.T) {
	sys := tinySystem(t)
	prog, err := NewProgram(sys)
	if err != nil {
		t.Fatal(err)
	}
	c := prog.NewController()
	first, err := c.RunCycle(func(a ActionID, q Level) Cycles { return sys.Cav.At(q, a) })
	if err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if got, want := c.Schedule(), prog.Schedule(); len(got) != len(want) {
		t.Fatalf("schedule length changed: %v vs %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Reset did not restore baseline order: %v vs %v", got, want)
			}
		}
	}
	second, err := c.RunCycle(func(a ActionID, q Level) Cycles { return sys.Cav.At(q, a) })
	if err != nil {
		t.Fatal(err)
	}
	if first.Elapsed != second.Elapsed || first.MeanLevel() != second.MeanLevel() {
		t.Fatalf("reused controller diverged: %+v vs %+v", second, first)
	}
}

// TestRetargetIsPrivate checks that Retarget on one controller leaves
// siblings over the original Program untouched.
func TestRetargetIsPrivate(t *testing.T) {
	sys := tinySystem(t)
	prog, err := NewProgram(sys)
	if err != nil {
		t.Fatal(err)
	}
	a := prog.NewController()
	b := prog.NewController()
	d2 := NewTimeFamily(sys.Levels, sys.Graph.Len(), 45)
	if err := a.Retarget(d2); err != nil {
		t.Fatal(err)
	}
	if a.Program() == prog {
		t.Fatal("Retarget did not fork the program")
	}
	if b.Program() != prog {
		t.Fatal("sibling lost its program")
	}
	if b.System().D.At(0, 0) == 45 && sys.D.At(0, 0) != 45 {
		t.Fatal("Retarget leaked into the shared system")
	}
}

// checkSelector requires the program's concrete selector to be set
// exactly when its evaluator is the generic *Tables, and to be that
// evaluator.
func checkSelector(t *testing.T, what string, p *Program) {
	t.Helper()
	tb, isTables := p.eval.(*Tables)
	if isTables != (p.tables != nil) || p.tables != tb {
		t.Fatalf("%s: selector %p with evaluator %T", what, p.tables, p.eval)
	}
}

// TestProgramConcreteSelector pins where the decision step's concrete
// selector comes from: NewProgram sets it exactly when the evaluator is
// *Tables (built or supplied), Retarget's rebuild keeps it, and
// IterativeTables still decides through the Evaluator interface. The
// linear-scan oracle's case is TestCandidateEvalThresholdProbes.
func TestProgramConcreteSelector(t *testing.T) {
	levels := NewLevelRange(0, 7)
	cost := make([]Cycles, 8)
	for qi := range cost {
		cost[qi] = Cycles(1 + qi)
	}
	sys := chainSystem(t, levels, cost, 2, 100)

	built, err := NewProgram(sys)
	if err != nil {
		t.Fatal(err)
	}
	checkSelector(t, "built tables", built)
	if built.tables == nil {
		t.Fatal("built tables: no concrete selector")
	}
	supplied, err := NewProgram(sys, WithEvaluator(NewTables(sys, built.Schedule()), built.Schedule()))
	if err != nil {
		t.Fatal(err)
	}
	checkSelector(t, "supplied tables", supplied)
	if supplied.tables == nil {
		t.Fatal("supplied tables: no concrete selector")
	}

	// IterativeTables: no concrete selector, and the decision is the
	// evaluator's own answer.
	r := rand.New(rand.NewSource(3))
	unrolled, body, bodyOrder, budget := buildIteratedSystem(r, 3)
	it, err := NewIterativeTables(body, bodyOrder, 3, budget)
	if err != nil {
		t.Fatal(err)
	}
	ic := mustController(t, unrolled, WithEvaluator(it, it.Order()))
	checkSelector(t, "iterative", ic.Program())
	if ic.Program().tables != nil {
		t.Fatal("iterative evaluator got a concrete selector")
	}
	ic.Preempt(budget / 2)
	wantLevel, wantProbes := it.MaxAdmissibleLevel(0, len(unrolled.Levels)-1, budget/2, false)
	d, err := ic.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d.LevelIndex != max(wantLevel, 0) || ic.Stats().CandidateEval != wantProbes {
		t.Fatalf("iterative decision %+v with %d probes, want level %d with %d", d, ic.Stats().CandidateEval, wantLevel, wantProbes)
	}

	// Retarget rebuilds and keeps the selector.
	c := mustController(t, sys)
	d2 := sys.D.Clone()
	for qi := range d2.Fns {
		d2.Fns[qi][0] += 50
	}
	before := c.Program()
	if err := c.Retarget(d2); err != nil {
		t.Fatal(err)
	}
	rebuilt := c.Program()
	checkSelector(t, "rebuild", rebuilt)
	if rebuilt == before || rebuilt.tables == nil || rebuilt.tables == before.tables {
		t.Fatalf("rebuild: program %p selector %p, previous %p %p", rebuilt, rebuilt.tables, before, before.tables)
	}
}

// TestProgramQminSchedule pins NewProgram's EDF schedule at qmin and
// its hard-infeasible error in the three cases that compute them
// differently: no soft marks (one EDF order serves both), soft marks
// (feasibility reads the hard deadlines, the order reads D), and
// WithSchedule (feasibility is still judged on the EDF order, not on
// the fixed one).
func TestProgramQminSchedule(t *testing.T) {
	// a and b are independent, 20 cycles each at worst case; b's
	// deadline is the earlier one, so EDF runs b first.
	twoActions := func(da, db Cycles, soft []bool) *System {
		t.Helper()
		b := NewGraphBuilder()
		b.AddAction("a")
		b.AddAction("b")
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		levels := NewLevelRange(0, 1)
		d := NewTimeFamily(levels, 2, 0)
		for _, q := range levels {
			d.Set(q, 0, da)
			d.Set(q, 1, db)
		}
		sys, err := NewSystem(g, levels, NewTimeFamily(levels, 2, 10), NewTimeFamily(levels, 2, 20), d)
		if err != nil {
			t.Fatal(err)
		}
		sys.Soft = soft
		return sys
	}
	const infeasible = "core: no feasible schedule at qmin under worst-case times; hard control is impossible"
	for _, tc := range []struct {
		name string
		sys  *System
		opts []Option
		want []ActionID // nil: hard NewProgram must fail with infeasible
	}{
		{name: "no soft marks", sys: twoActions(100, 30, nil), want: []ActionID{1, 0}},
		{name: "no soft marks, infeasible", sys: twoActions(100, 15, nil)},
		{name: "soft mark lifts b", sys: twoActions(100, 15, []bool{false, true}), want: []ActionID{1, 0}},
		{name: "soft marks, infeasible", sys: twoActions(10, 15, []bool{false, true})},
		// The fixed order runs a first and would miss b's deadline;
		// the EDF order at qmin is feasible, so the program is built.
		{name: "WithSchedule", sys: twoActions(100, 30, nil), opts: []Option{WithSchedule([]ActionID{0, 1})}, want: []ActionID{0, 1}},
		{name: "WithSchedule, infeasible", sys: twoActions(100, 15, nil), opts: []Option{WithSchedule([]ActionID{1, 0})}},
	} {
		p, err := NewProgram(tc.sys, tc.opts...)
		if tc.want == nil {
			if err == nil || err.Error() != infeasible {
				t.Errorf("%s: err = %v, want %q", tc.name, err, infeasible)
			}
			// Soft mode does not gate on feasibility.
			if _, err := NewProgram(tc.sys, append(tc.opts, WithMode(Soft))...); err != nil {
				t.Errorf("%s: soft mode: %v", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := p.Schedule(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: schedule %v, want %v", tc.name, got, tc.want)
		}
	}
}
