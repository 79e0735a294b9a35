package platform

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGZeroSeedRemapped(t *testing.T) {
	r := NewRNG(0)
	if r.Next() == 0 && r.Next() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10_000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) visited %d values in 1000 draws", len(seen))
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(11)
	var sum, sq float64
	const n = 50_000
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sq += x * x
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(9)
	s := r.Split()
	// The split stream must not track the parent.
	same := 0
	for i := 0; i < 50; i++ {
		if r.Next() == s.Next() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split stream coincides with parent %d/50 times", same)
	}
}

func TestSimClock(t *testing.T) {
	c := NewSimClock()
	if c.Now() != 0 {
		t.Fatal("fresh clock not at 0")
	}
	c.Advance(100)
	c.Advance(50)
	if c.Now() != 150 {
		t.Fatalf("Now = %v, want 150", c.Now())
	}
	c.Advance(-10) // ignored
	if c.Now() != 150 {
		t.Fatal("negative advance moved the clock")
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestWallClockMonotone(t *testing.T) {
	c := NewWallClock(1e9)
	a := c.Now()
	c.Advance(1000) // 1 microsecond at 1 GHz
	b := c.Now()
	if b < a {
		t.Fatal("wall clock went backwards")
	}
}

// twoActionSystem builds a -> b with one level for executor tests.
func twoActionSystem(t *testing.T) *core.System {
	t.Helper()
	gb := core.NewGraphBuilder()
	gb.AddAction("a")
	gb.AddAction("b")
	gb.AddEdge("a", "b")
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	levels := core.NewLevelRange(0, 1)
	cav := core.NewTimeFamily(levels, 2, 10)
	cwc := core.NewTimeFamily(levels, 2, 20)
	for a := core.ActionID(0); a < 2; a++ {
		cav.Set(1, a, 30)
		cwc.Set(1, a, 40)
	}
	d := core.NewTimeFamily(levels, 2, 1000)
	sys, err := core.NewSystem(g, levels, cav, cwc, d)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestExecutorRunControlled(t *testing.T) {
	sys := twoActionSystem(t)
	ctrl, err := core.NewController(sys)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor()
	e.DecisionOverhead = 5
	rep, err := e.RunControlled(ctrl, WorkloadFunc(func(a core.ActionID, q core.Level) core.Cycles {
		return 10
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Actions != 2 {
		t.Fatalf("actions = %d", rep.Actions)
	}
	if rep.WorkCycles != 20 || rep.CtrlCycles != 10 {
		t.Fatalf("work=%v ctrl=%v", rep.WorkCycles, rep.CtrlCycles)
	}
	if rep.Elapsed != 30 {
		t.Fatalf("elapsed = %v, want 30", rep.Elapsed)
	}
	if rep.Misses != 0 {
		t.Fatalf("misses = %d", rep.Misses)
	}
	if got := rep.OverheadFraction(); got < 0.3 || got > 0.4 {
		t.Errorf("overhead fraction = %v, want 1/3", got)
	}
	// Ample budget: the controller should hold the top level.
	if rep.MeanLevel() != 1 {
		t.Errorf("mean level = %v, want 1", rep.MeanLevel())
	}
}

func TestExecutorRunConstant(t *testing.T) {
	sys := twoActionSystem(t)
	e := NewExecutor()
	rep := e.RunConstant(sys, 0, WorkloadFunc(func(core.ActionID, core.Level) core.Cycles {
		return 600 // exceed the 1000-cycle deadline on the second action
	}))
	if rep.Actions != 2 {
		t.Fatalf("actions = %d", rep.Actions)
	}
	if rep.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (second action finishes at 1200)", rep.Misses)
	}
	if rep.CtrlCycles != 0 {
		t.Fatal("constant run charged controller cycles")
	}
}

func TestExecutorRunConstantPanicsOnBadLevel(t *testing.T) {
	sys := twoActionSystem(t)
	e := NewExecutor()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown level")
		}
	}()
	e.RunConstant(sys, 9, WorkloadFunc(func(core.ActionID, core.Level) core.Cycles { return 1 }))
}

func TestPropertyRNGFloatBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 64; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
