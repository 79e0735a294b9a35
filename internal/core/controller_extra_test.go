package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestControllerSingleAction(t *testing.T) {
	b := NewGraphBuilder()
	b.AddAction("solo")
	g := mustGraph(t, b)
	levels := NewLevelRange(0, 3)
	cav := NewTimeFamily(levels, 1, 0)
	cwc := NewTimeFamily(levels, 1, 0)
	for qi, q := range levels {
		cav.Set(q, 0, Cycles(10*(qi+1)))
		cwc.Set(q, 0, Cycles(20*(qi+1)))
	}
	d := NewTimeFamily(levels, 1, 50)
	sys, err := NewSystem(g, levels, cav, cwc, d)
	if err != nil {
		t.Fatal(err)
	}
	c := mustController(t, sys)
	dec, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	// Level 2: wc 60 > 50 rejected; level 1: wc 40 <= 50 admitted? av 20
	// <= 50 yes. So level 1.
	if dec.Level != 1 {
		t.Fatalf("level = %d, want 1", dec.Level)
	}
	c.Completed(40)
	if !c.Done() {
		t.Fatal("should be done")
	}
}

func TestControllerGettersProgress(t *testing.T) {
	sys := tinySystem(t)
	c := mustController(t, sys)
	if c.Position() != 0 || c.Elapsed() != 0 {
		t.Fatal("fresh controller state wrong")
	}
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	c.Completed(17)
	if c.Position() != 1 || c.Elapsed() != 17 {
		t.Fatalf("position=%d elapsed=%v", c.Position(), c.Elapsed())
	}
	// Negative completion times are clamped.
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	c.Completed(-5)
	if c.Elapsed() != 17 {
		t.Fatalf("negative completion changed elapsed: %v", c.Elapsed())
	}
}

func TestControllerLevelChangesStat(t *testing.T) {
	sys := tinySystem(t)
	c := mustController(t, sys)
	// Slow first action forces a drop for the second: one level change.
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	c.Completed(51)
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	c.Completed(20)
	if got := c.Stats().LevelChanges; got != 1 {
		t.Fatalf("LevelChanges = %d, want 1", got)
	}
}

func TestWithEvaluatorInvalidOrder(t *testing.T) {
	sys := tinySystem(t)
	tb := NewTables(sys, []ActionID{0, 1})
	if _, err := NewController(sys, WithEvaluator(tb, []ActionID{1, 0})); err == nil {
		t.Fatal("invalid evaluator order accepted")
	}
}

func TestRetargetWithCustomEvaluatorRejected(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	unrolled, body, bodyOrder, budget := buildIteratedSystem(r, 2)
	it, err := NewIterativeTables(body, bodyOrder, 2, budget)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(unrolled, WithEvaluator(it, it.Order()))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Retarget(unrolled.D); err == nil {
		t.Fatal("Retarget with custom evaluator accepted")
	}
}

func TestCycleResultMeanLevelEmpty(t *testing.T) {
	if (CycleResult{}).MeanLevel() != 0 {
		t.Fatal("empty MeanLevel should be 0")
	}
}

// Determinism: identical systems and identical loads produce identical
// decision sequences on every path.
func TestPropertyControllerDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		build := func() ([]Level, bool) {
			r := rand.New(rand.NewSource(seed))
			sys := randomSystem(r, 7, 4)
			c, err := NewController(sys)
			if err != nil {
				return nil, false
			}
			var out []Level
			for !c.Done() {
				d, err := c.Next()
				if err != nil {
					return nil, false
				}
				out = append(out, d.Level)
				c.Completed(actualDraw(r, sys, d.Action, d.Level, 0.4))
			}
			return out, true
		}
		a, ok1 := build()
		b, ok2 := build()
		if !ok1 || !ok2 || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Soft mode never rejects a level the hard mode admits (hard is a
// strictly stronger constraint set).
func TestPropertySoftAdmitsMoreThanHard(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sys := randomSystem(r, 7, 4)
		hard := mustControllerQ(t, sys)
		soft := mustControllerQ(t, sys, WithMode(Soft))
		for !hard.Done() {
			dh, err1 := hard.Next()
			ds, err2 := soft.Next()
			if err1 != nil || err2 != nil {
				return false
			}
			if ds.Level < dh.Level {
				return false
			}
			actual := actualDraw(r, sys, dh.Action, dh.Level, 0.2)
			hard.Completed(actual)
			soft.Completed(actual)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestControllerSizeIsCacheLineMultiple: controllers of concurrent
// streams are allocated side by side, so a size that is not a whole
// number of 64-byte cache lines lets one stream's per-decision writes
// slow its neighbour's reads (false sharing). Adjust the padding field
// when the struct changes.
func TestControllerSizeIsCacheLineMultiple(t *testing.T) {
	if s := unsafe.Sizeof(Controller{}); s%64 != 0 {
		t.Fatalf("sizeof(Controller) = %d, not a multiple of 64", s)
	}
}
