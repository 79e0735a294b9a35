package core

import (
	"math/rand"
	"testing"
)

// randomUniformOrderSystem extends randomSystem with optional per-level
// deadline offsets: every finite deadline at level index qi gains a
// non-negative offset that grows with qi. The deadline ORDER stays
// quality-independent, but slack profiles may now INCREASE with the
// level at some positions — the non-monotone case the threshold engine
// must fall back to a linear scan for.
func randomUniformOrderSystem(r *rand.Rand, maxActions, maxLevels int) *System {
	sys := randomSystem(r, maxActions, maxLevels)
	if r.Intn(3) > 0 {
		d := sys.D.Clone()
		var off Cycles
		for qi := range d.Fns {
			if qi > 0 {
				off += Cycles(r.Intn(150))
			}
			for a := range d.Fns[qi] {
				if !d.Fns[qi][a].IsInf() {
					d.Fns[qi][a] += off
				}
			}
		}
		ns := *sys
		ns.D = d
		sys = &ns
	}
	if r.Intn(4) == 0 {
		// A random soft mask (hard feasibility only gets easier).
		soft := make([]bool, sys.Graph.Len())
		any := false
		for a := range soft {
			if r.Intn(3) == 0 {
				soft[a] = true
				any = true
			}
		}
		if any {
			ns := *sys
			ns.Soft = soft
			sys = &ns
		}
	}
	return sys
}

// driveBoth drives two controllers through full cycles on identical
// actual times and requires byte-identical decisions throughout —
// including fallbacks and smoothness clamping. Returns false on first
// divergence (reported through t).
func driveBoth(t *testing.T, r *rand.Rand, seed int64, sys *System, fast, ref *Controller, cycles int) {
	t.Helper()
	for cycle := 0; cycle < cycles; cycle++ {
		fast.Reset()
		ref.Reset()
		if r.Intn(3) == 0 {
			pre := Cycles(r.Intn(120))
			fast.Preempt(pre)
			ref.Preempt(pre)
		}
		step := 0
		for !fast.Done() {
			df, errF := fast.Next()
			dr, errR := ref.Next()
			if (errF == nil) != (errR == nil) {
				t.Fatalf("seed %d cycle %d step %d: error divergence: %v vs %v", seed, cycle, step, errF, errR)
			}
			if df != dr {
				t.Fatalf("seed %d cycle %d step %d: decision divergence: threshold %+v vs reference %+v",
					seed, cycle, step, df, dr)
			}
			actual := actualDraw(r, sys, df.Action, df.Level, 0)
			if r.Intn(6) == 0 {
				// Break the execution contract now and then so the
				// fallback path diverges too if it is ever wrong.
				actual = actual*3 + Cycles(r.Intn(400))
			}
			fast.Completed(actual)
			ref.Completed(actual)
			step++
		}
		if !ref.Done() {
			t.Fatalf("seed %d cycle %d: reference not done with threshold done", seed, cycle)
		}
		if fast.Elapsed() != ref.Elapsed() {
			t.Fatalf("seed %d cycle %d: elapsed %v vs %v", seed, cycle, fast.Elapsed(), ref.Elapsed())
		}
		fs, rs := fast.Stats(), ref.Stats()
		fs.CandidateEval, rs.CandidateEval = 0, 0 // probe counts differ by design
		if fs != rs {
			t.Fatalf("seed %d cycle %d: stats divergence: %+v vs %+v", seed, cycle, fs, rs)
		}
	}
}

// TestDifferentialThresholdVsReferenceScan is the engine's equivalence
// proof on randomized systems: random DAGs, level counts, times,
// deadlines (with per-level offsets exercising the non-monotone
// fallback), soft masks, modes, smoothness bounds and preemption. The
// threshold engine's decisions must be byte-identical to the retained
// linear-scan reference across full cycles. CI runs the package under
// -race, which covers the engine's shared-table reads too.
func TestDifferentialThresholdVsReferenceScan(t *testing.T) {
	nonMono := 0
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		sys := randomUniformOrderSystem(r, 10, 8)
		opts := []Option{}
		if r.Intn(3) == 0 {
			opts = append(opts, WithMode(Soft))
		}
		if k := r.Intn(4); k > 0 {
			opts = append(opts, WithMaxStep(k))
		}
		fast := mustController(t, sys, opts...)
		ref := scanController(t, sys, opts...)
		if fast.prog.tables == nil {
			t.Fatalf("seed %d: threshold engine not engaged", seed)
		}
		if _, ok := ref.prog.eval.(linearScan); !ok {
			t.Fatalf("seed %d: reference controller is not on the linear scan", seed)
		}
		if tb := fast.prog.eval.(*Tables); tb != nil {
			soft := fast.prog.mode == Soft
			for i := 0; i < tb.Len(); i++ {
				if !tb.MonotoneAt(i, soft) {
					nonMono++
					break
				}
			}
		}
		driveBoth(t, r, seed, sys, fast, ref, 3)
	}
	if nonMono == 0 {
		t.Error("generator never produced a non-monotone slack profile; the fallback path went untested")
	}
}

// TestDifferentialIterativeSelector proves the same equivalence for the
// IterativeTables selector (binary search with O(1) slack evaluation)
// against the linear scan over the same evaluator.
func TestDifferentialIterativeSelector(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		iters := 2 + r.Intn(5)
		unrolled, body, bodyOrder, budget := buildIteratedSystem(r, iters)
		it, err := NewIterativeTables(body, bodyOrder, iters, budget)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		it2, err := NewIterativeTables(body, bodyOrder, iters, budget)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opts := []Option{}
		if r.Intn(3) == 0 {
			opts = append(opts, WithMode(Soft))
		}
		if k := r.Intn(3); k > 0 {
			opts = append(opts, WithMaxStep(k))
		}
		fast := mustController(t, unrolled, append(opts[:len(opts):len(opts)], WithEvaluator(it, it.Order()))...)
		ref := mustController(t, unrolled,
			append(opts[:len(opts):len(opts)], WithEvaluator(linearScan{it2}, it2.Order()))...)
		if fast.prog.eval != Evaluator(it) {
			t.Fatalf("seed %d: iterative selector not engaged", seed)
		}
		driveBoth(t, r, seed, unrolled, fast, ref, 2)
	}
}

// TestMaxAdmissibleLevelAgainstScan pins the selector's contract
// directly: for every position, elapsed time sample and hi clamp, the
// returned level equals the highest scan hit, on monotone and
// non-monotone profiles alike.
func TestMaxAdmissibleLevelAgainstScan(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		sys := randomUniformOrderSystem(r, 8, 8)
		alpha := EDFSchedule(sys.Graph, sys.Cwc.AtIndex(0), sys.D.AtIndex(0))
		tb := NewTables(sys, alpha)
		nl := len(sys.Levels)
		for _, soft := range []bool{false, true} {
			for i := 0; i < tb.Len(); i++ {
				for _, tv := range []Cycles{0, 1, 17, 60, 150, 400, 1200, 5000} {
					for hi := 0; hi < nl; hi++ {
						want := -1
						for qi := hi; qi >= 0; qi-- {
							adm := tb.AllowedAv(qi, i, tv)
							if !soft {
								adm = adm && tb.AllowedWc(qi, i, tv)
							}
							if adm {
								want = qi
								break
							}
						}
						got, probes := tb.MaxAdmissibleLevel(i, hi, tv, soft)
						if got != want {
							t.Fatalf("seed %d (i=%d t=%v hi=%d soft=%v): MaxAdmissibleLevel = %d, scan = %d",
								seed, i, tv, hi, soft, got, want)
						}
						if probes < 1 || probes > nl {
							t.Fatalf("seed %d: probe count %d out of [1, %d]", seed, probes, nl)
						}
					}
				}
			}
		}
	}
}

// TestNonMonotoneSlackFallback pins a hand-built profile where a HIGHER
// level is admissible while a lower one is not (deadlines grow with
// quality faster than costs): position flagged non-monotone, decisions
// still maximal-admissible. A single action keeps the qmin fallback
// tail (which is priced at qmin deadlines and would otherwise cap every
// level's combined slack the same way) out of the picture.
func TestNonMonotoneSlackFallback(t *testing.T) {
	b := NewGraphBuilder()
	b.AddAction("a")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	levels := NewLevelRange(0, 2)
	cav := NewTimeFamily(levels, 1, 0)
	cwc := NewTimeFamily(levels, 1, 0)
	d := NewTimeFamily(levels, 1, 0)
	for qi, q := range levels {
		cav.Set(q, 0, Cycles(10+qi*10))
		cwc.Set(q, 0, Cycles(10+qi*10))
		// Deadlines: level 0 → 100, level 1 → 105, level 2 → 200, so
		// the slacks run 90, 85, 170 — level 2 beats level 1.
		dl := Cycles(100)
		switch qi {
		case 1:
			dl = 105
		case 2:
			dl = 200
		}
		d.Set(q, 0, dl)
	}
	sys, err := NewSystem(g, levels, cav, cwc, d)
	if err != nil {
		t.Fatal(err)
	}
	alpha := []ActionID{0}
	tb := NewTables(sys, alpha)
	if tb.MonotoneAt(0, false) {
		t.Fatalf("position 0 reported monotone: slacks %v %v %v",
			tb.CombinedSlackAt(0, 0), tb.CombinedSlackAt(1, 0), tb.CombinedSlackAt(2, 0))
	}
	// At t between level-1 and level-2 slack, level 2 is admissible but
	// level 1 is not: the maximal admissible level must still be found.
	s1, s2 := tb.CombinedSlackAt(1, 0), tb.CombinedSlackAt(2, 0)
	if !(s1 < s2) {
		t.Fatalf("profile not shaped as intended: s1=%v s2=%v", s1, s2)
	}
	got, _ := tb.MaxAdmissibleLevel(0, 2, s1+1, false)
	if got != 2 {
		t.Fatalf("MaxAdmissibleLevel = %d, want 2 (non-monotone fallback)", got)
	}
	// End-to-end: the controller picks level 2 at that elapsed time.
	c := mustController(t, sys)
	c.Preempt(s1 + 1)
	dec, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if dec.LevelIndex != 2 || dec.Fallback {
		t.Fatalf("decision %+v, want level index 2 without fallback", dec)
	}
}

// TestZeroActionSystemRejected is the regression test for the latent
// resetOver panic: a system with no actions must be rejected at
// NewProgram time, not crash taking &alpha[0].
func TestZeroActionSystemRejected(t *testing.T) {
	// GraphBuilder refuses empty graphs, but a zero-value Graph (or one
	// deserialised from elsewhere) can still reach NewProgram.
	g := &Graph{}
	levels := NewLevelRange(0, 1)
	sys, err := NewSystem(g, levels, NewTimeFamily(levels, 0, 0), NewTimeFamily(levels, 0, 0), NewTimeFamily(levels, 0, Inf))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if _, err := NewProgram(sys); err == nil {
		t.Error("zero-action system accepted")
	}
	if _, err := NewController(sys); err == nil {
		t.Error("NewController accepted a zero-action system")
	}
}

// TestRetargetNilFamilyRejected: a nil deadline family must return a
// clean error, not panic in validation.
func TestRetargetNilFamilyRejected(t *testing.T) {
	sys := tinySystem(t)
	c := mustController(t, sys)
	if err := c.Retarget(nil); err == nil {
		t.Fatal("Retarget(nil) accepted")
	}
}
