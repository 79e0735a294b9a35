package core

import (
	"math/rand"
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
	if !prog.UsesTables() {
		t.Fatal("tiny system should take the table fast path")
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

// TestProgramDirectPathIsolation checks that direct-path controllers get
// private schedule copies: Best_Sched permutations in one stream must
// not leak into another.
func TestProgramDirectPathIsolation(t *testing.T) {
	sys := tinySystem(t)
	prog, err := NewProgram(sys, WithTables(false))
	if err != nil {
		t.Fatal(err)
	}
	if prog.UsesTables() {
		t.Fatal("WithTables(false) ignored")
	}
	a := prog.NewController()
	b := prog.NewController()
	if &a.alpha[0] == &b.alpha[0] {
		t.Fatal("direct-path controllers share a schedule buffer")
	}
	if _, err := a.Next(); err != nil {
		t.Fatal(err)
	}
	a.Completed(1)
	// b is untouched by a's progress.
	if b.Position() != 0 || b.Elapsed() != 0 {
		t.Fatalf("sibling controller mutated: pos=%d t=%v", b.Position(), b.Elapsed())
	}
}

// TestControllerResetRestoresSchedule verifies that pooled reuse after
// Reset is indistinguishable from a fresh instance on the direct path.
func TestControllerResetRestoresSchedule(t *testing.T) {
	sys := tinySystem(t)
	prog, err := NewProgram(sys, WithTables(false))
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
// *Tables (built or supplied), every Retarget path keeps it, and
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
	direct, err := NewProgram(sys, WithTables(false))
	if err != nil {
		t.Fatal(err)
	}
	checkSelector(t, "direct path", direct)
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

	// All three Retarget paths keep the selector.
	pc := NewProgramCache(0)
	c := mustController(t, sys, WithProgramCache(pc))
	family := func(grow0, grow1 Cycles) *TimeFamily {
		d := sys.D.Clone()
		for qi := range d.Fns {
			d.Fns[qi][0] += grow0
			d.Fns[qi][1] += grow1
		}
		return d
	}
	before := c.Program().tables
	if err := c.Retarget(family(10, 10)); err != nil {
		t.Fatal(err)
	}
	if c.DeadlineShift() != 10 || c.Program().tables != before {
		t.Fatalf("uniform shift: shift %v, selector %p, want 10 and %p", c.DeadlineShift(), c.Program().tables, before)
	}
	checkSelector(t, "uniform shift", c.Program())
	if err := c.Retarget(family(50, 0)); err != nil {
		t.Fatal(err)
	}
	rebuilt := c.Program()
	checkSelector(t, "rebuild", rebuilt)
	if c.DeadlineShift() != 0 || rebuilt.tables == nil {
		t.Fatalf("rebuild: shift %v, selector %p", c.DeadlineShift(), rebuilt.tables)
	}
	if err := c.Retarget(family(0, 30)); err != nil {
		t.Fatal(err)
	}
	if err := c.Retarget(family(50, 0)); err != nil {
		t.Fatal(err)
	}
	if hits, _ := pc.Stats(); hits != 1 || c.Program() != rebuilt {
		t.Fatalf("cache hit: %d hits, program %p, want 1 hit on %p", hits, c.Program(), rebuilt)
	}
	checkSelector(t, "cache hit", c.Program())
}
