package core

import (
	"math/rand"
	"testing"
)

// randomUniformOrderSystem extends randomSystem with optional per-level
// deadline offsets: every finite deadline at level index qi gains a
// non-negative offset that grows with qi. The deadline ORDER stays
// quality-independent (the table path applies), but slack profiles may
// now INCREASE with the level at some positions — the non-monotone case
// the threshold engine must fall back to a linear scan for.
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
		fa, ra := fast.Assignment(), ref.Assignment()
		for a := range fa {
			if fa[a] != ra[a] {
				t.Fatalf("seed %d cycle %d: assignment divergence at action %d: %d vs %d", seed, cycle, a, fa[a], ra[a])
			}
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
		if _, ok := fast.prog.eval.(*Tables); !fast.prog.useTables || !ok {
			t.Fatalf("seed %d: threshold engine not engaged (tables=%v)", seed, fast.prog.useTables)
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
// NewProgram time on every path, not crash taking &alpha[0].
func TestZeroActionSystemRejected(t *testing.T) {
	// GraphBuilder refuses empty graphs, but a zero-value Graph (or one
	// deserialised from elsewhere) can still reach NewProgram.
	g := &Graph{}
	levels := NewLevelRange(0, 1)
	sys, err := NewSystem(g, levels, NewTimeFamily(levels, 0, 0), NewTimeFamily(levels, 0, 0), NewTimeFamily(levels, 0, Inf))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	for _, tables := range []bool{true, false} {
		if _, err := NewProgram(sys, WithTables(tables)); err == nil {
			t.Errorf("tables=%v: zero-action system accepted", tables)
		}
	}
	if _, err := NewController(sys); err == nil {
		t.Error("NewController accepted a zero-action system")
	}
}

// shiftFamily returns d with every finite entry moved by delta.
func shiftFamily(d *TimeFamily, delta Cycles) *TimeFamily {
	out := d.Clone()
	for qi := range out.Fns {
		for a := range out.Fns[qi] {
			if !out.Fns[qi][a].IsInf() {
				out.Fns[qi][a] += delta
			}
		}
	}
	return out
}

// TestUniformShiftDetection covers the classifier itself.
func TestUniformShiftDetection(t *testing.T) {
	sys := tinySystem(t)
	d2 := shiftFamily(sys.D, 25)
	if delta, ok := UniformShift(sys.D, d2); !ok || delta != 25 {
		t.Fatalf("UniformShift = (%v, %v), want (25, true)", delta, ok)
	}
	if delta, ok := UniformShift(d2, sys.D); !ok || delta != -25 {
		t.Fatalf("reverse shift = (%v, %v), want (-25, true)", delta, ok)
	}
	d3 := d2.Clone()
	d3.Fns[0][1] += 1
	if _, ok := UniformShift(sys.D, d3); ok {
		t.Fatal("non-uniform change classified as uniform")
	}
	d4 := d2.Clone()
	d4.Fns[1][0] = Inf
	if _, ok := UniformShift(sys.D, d4); ok {
		t.Fatal("finite→Inf change classified as uniform")
	}
	allInf := NewTimeFamily(sys.Levels, 2, Inf)
	if delta, ok := UniformShift(allInf, allInf.Clone()); !ok || delta != 0 {
		t.Fatalf("all-Inf families = (%v, %v), want (0, true)", delta, ok)
	}
}

// TestRetargetUniformShiftEquivalence: re-targeting through the O(1)
// shift path must produce decisions identical to a controller freshly
// built at the shifted deadlines, and must not rebuild the tables.
func TestRetargetUniformShiftEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 80; seed++ {
		r := rand.New(rand.NewSource(seed))
		sys := randomUniformOrderSystem(r, 8, 6)
		c := mustController(t, sys)
		tb0 := c.prog.eval
		delta := Cycles(r.Intn(400)) // grow: stays feasible
		d2 := shiftFamily(sys.D, delta)
		if err := c.Retarget(d2); err != nil {
			t.Fatalf("seed %d: Retarget(+%v): %v", seed, delta, err)
		}
		if c.prog.eval != tb0 {
			t.Fatalf("seed %d: uniform retarget rebuilt the tables", seed)
		}
		if c.DeadlineShift() != delta {
			t.Fatalf("seed %d: DeadlineShift = %v, want %v", seed, c.DeadlineShift(), delta)
		}
		sys2 := *sys
		sys2.D = d2
		fresh := mustController(t, &sys2)
		driveBoth(t, r, seed, &sys2, c, fresh, 2)
	}
}

// TestShiftDeadlinesSemantics covers the direct O(1) hook: admission
// loosens/tightens exactly by the shift, infeasible shrinks are
// rejected with no state change, mid-cycle and non-table calls error,
// and Reset preserves the time base.
func TestShiftDeadlinesSemantics(t *testing.T) {
	sys := tinySystem(t) // D=100 everywhere; qmin combined slack 60, level 1's 30
	c := mustController(t, sys)
	// Tighten so only qmin fits from the start: level 1 is admissible at
	// effective times ≤ 30; a −50 shift makes t=0 look like t=50.
	if err := c.ShiftDeadlines(-50); err != nil {
		t.Fatalf("feasible shrink rejected: %v", err)
	}
	d, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d.LevelIndex != 0 || d.Fallback {
		t.Fatalf("decision %+v after -50 shift, want qmin without fallback", d)
	}
	c.Completed(5)
	if err := c.ShiftDeadlines(10); err == nil {
		t.Fatal("mid-cycle ShiftDeadlines accepted")
	}
	c.Reset()
	if c.DeadlineShift() != -50 {
		t.Fatalf("Reset cleared the deadline shift: %v", c.DeadlineShift())
	}
	// Infeasible: qmin's initial slack is 60; a cumulative −80 is past it.
	if err := c.ShiftDeadlines(-30); err == nil {
		t.Fatal("infeasible shrink accepted")
	}
	if c.DeadlineShift() != -50 {
		t.Fatalf("failed shift mutated state: %v", c.DeadlineShift())
	}
	// Growing the budget back restores full quality.
	if err := c.ShiftDeadlines(50); err != nil {
		t.Fatal(err)
	}
	d, err = c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d.LevelIndex != 1 {
		t.Fatalf("decision %+v after restoring budget, want top level", d)
	}

	// Non-table paths are rejected.
	direct := mustController(t, sys, WithTables(false))
	if err := direct.ShiftDeadlines(10); err == nil {
		t.Fatal("ShiftDeadlines accepted on the direct path")
	}
}

// TestProgramCacheRetarget: recurring non-uniform deadline families
// must rebuild their tables once and then hit the cache; the cached
// programs must be immune to the caller mutating the family afterwards.
func TestProgramCacheRetarget(t *testing.T) {
	sys := tinySystem(t)
	pc := NewProgramCache(4)
	c := mustController(t, sys, WithProgramCache(pc))
	base := c.prog

	// Two non-uniform families (different per-action values so the
	// uniform-shift fast path cannot absorb them).
	mk := func(a0, b0 Cycles) *TimeFamily {
		d := NewTimeFamily(sys.Levels, 2, 0)
		for _, q := range sys.Levels {
			d.Set(q, 0, a0)
			d.Set(q, 1, b0)
		}
		return d
	}
	dA := mk(60, 130)
	dB := mk(90, 100)
	if _, ok := UniformShift(sys.D, dA); ok {
		t.Fatal("test family A is uniform with the base; rewrite the test")
	}
	if err := c.Retarget(dA); err != nil {
		t.Fatal(err)
	}
	progA := c.prog
	if progA == base {
		t.Fatal("Retarget did not fork")
	}
	if err := c.Retarget(dB); err != nil {
		t.Fatal(err)
	}
	progB := c.prog
	// Mutate the caller's families: cached programs must hold snapshots.
	dA.Set(0, 0, 1)
	dB.Set(0, 0, 1)
	if err := c.Retarget(mk(60, 130)); err != nil {
		t.Fatal(err)
	}
	if c.prog != progA {
		t.Fatal("repeat of family A missed the cache")
	}
	if err := c.Retarget(mk(90, 100)); err != nil {
		t.Fatal(err)
	}
	if c.prog != progB {
		t.Fatal("repeat of family B missed the cache")
	}
	if hits, misses := pc.Stats(); hits != 2 || misses != 2 {
		t.Fatalf("cache stats hits=%d misses=%d, want 2/2", hits, misses)
	}

	// A second controller over the same lineage shares the cache.
	c2 := mustController(t, sys, WithProgramCache(pc))
	if err := c2.Retarget(mk(60, 130)); err != nil {
		t.Fatal(err)
	}
	if c2.prog != progA {
		t.Fatal("sibling controller missed the shared cache")
	}

	// The cached program still decides correctly (snapshot semantics):
	// budget 60/130 admits only qmin first (level 1 wc needs t ≤ 60−50
	// =10 combined with fallback... just require a clean cycle).
	res, err := c.RunCycle(func(a ActionID, q Level) Cycles { return sys.Cwc.At(q, a) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatalf("cached program missed %d deadlines", res.Misses)
	}
}

// TestRetargetNilFamilyRejected: a nil deadline family must return a
// clean error, not panic in the cache's hash — controllers now carry a
// cache by default through session.Runtime.
func TestRetargetNilFamilyRejected(t *testing.T) {
	sys := tinySystem(t)
	c := mustController(t, sys, WithProgramCache(NewProgramCache(0)))
	if err := c.Retarget(nil); err == nil {
		t.Fatal("Retarget(nil) accepted")
	}
}

// TestProgramCacheConfigIsolation: controllers that differ only in
// pinned schedule order or soft-deadline mask must never cross-hit a
// shared cache — a hit with the wrong alpha executes actions out of
// order; one with the wrong soft mask admits against the wrong safety
// tables.
func TestProgramCacheConfigIsolation(t *testing.T) {
	// Two independent actions (no edge) so both orders are schedules.
	b := NewGraphBuilder()
	b.AddAction("a")
	b.AddAction("b")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	levels := NewLevelRange(0, 1)
	cav := NewTimeFamily(levels, 2, 10)
	cwc := NewTimeFamily(levels, 2, 20)
	d := NewTimeFamily(levels, 2, 100)
	sys, err := NewSystem(g, levels, cav, cwc, d)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewProgramCache(8)
	cA := mustController(t, sys, WithProgramCache(pc), WithSchedule([]ActionID{0, 1}))
	cB := mustController(t, sys, WithProgramCache(pc), WithSchedule([]ActionID{1, 0}))
	d2 := NewTimeFamily(levels, 2, 0)
	for _, q := range levels {
		d2.Set(q, 0, 80)
		d2.Set(q, 1, 150)
	}
	if err := cA.Retarget(d2); err != nil {
		t.Fatal(err)
	}
	if err := cB.Retarget(d2.Clone()); err != nil {
		t.Fatal(err)
	}
	if cB.prog == cA.prog {
		t.Fatal("cache crossed WithSchedule configurations")
	}
	if got := cB.Schedule(); got[0] != 1 || got[1] != 0 {
		t.Fatalf("controller B lost its pinned order: %v", got)
	}

	// Soft mask isolation on the same model.
	soft := *sys
	soft.Soft = []bool{true, false}
	cHard := mustController(t, sys, WithProgramCache(pc))
	cSoft := mustController(t, &soft, WithProgramCache(pc))
	if err := cHard.Retarget(d2.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := cSoft.Retarget(d2.Clone()); err != nil {
		t.Fatal(err)
	}
	if cSoft.prog == cHard.prog {
		t.Fatal("cache crossed soft-mask configurations")
	}
	// An all-false mask IS the all-hard configuration: sharing allowed.
	allHard := *sys
	allHard.Soft = []bool{false, false}
	cHard2 := mustController(t, &allHard, WithProgramCache(pc))
	if err := cHard2.Retarget(d2.Clone()); err != nil {
		t.Fatal(err)
	}
	if cHard2.prog != cHard.prog {
		t.Fatal("all-false soft mask did not share the all-hard program")
	}
}

// TestProgramCacheLRUEviction: the cache keeps at most cap programs and
// evicts the least recently used.
func TestProgramCacheLRUEviction(t *testing.T) {
	sys := tinySystem(t)
	pc := NewProgramCache(2)
	c := mustController(t, sys, WithProgramCache(pc))
	mk := func(a0, b0 Cycles) *TimeFamily {
		d := NewTimeFamily(sys.Levels, 2, 0)
		for _, q := range sys.Levels {
			d.Set(q, 0, a0)
			d.Set(q, 1, b0)
		}
		return d
	}
	fams := []*TimeFamily{mk(60, 130), mk(90, 100), mk(70, 120)}
	var progs []*Program
	for _, d := range fams {
		if err := c.Retarget(d); err != nil {
			t.Fatal(err)
		}
		progs = append(progs, c.prog)
	}
	if pc.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", pc.Len())
	}
	// Family 1 is still cached (family 0 was the LRU eviction victim);
	// returning to it must hit. Note: revisiting the CURRENT family
	// (family 2) would be absorbed by the uniform-shift Δ=0 fast path
	// and never consult the cache.
	if err := c.Retarget(mk(90, 100)); err != nil {
		t.Fatal(err)
	}
	if c.prog != progs[1] {
		t.Fatal("recently used family missed the cache")
	}
	hits0, misses0 := pc.Stats()
	if err := c.Retarget(fams[0]); err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := pc.Stats()
	if hits1 != hits0 || misses1 != misses0+1 {
		t.Fatalf("evicted family did not miss: hits %d→%d misses %d→%d", hits0, hits1, misses0, misses1)
	}
}
