package core

import (
	"math/rand"
	"testing"
)

// chainSystem builds an n-action chain a0 → a1 → … with the given level
// set, per-level execution cost (Cav = Cwc = cost[qi], identical for
// every action) and per-action deadline D(a_i) = (i+1)·deadlineStep at
// every level (quality-independent order: the table fast path applies).
func chainSystem(t *testing.T, levels LevelSet, cost []Cycles, n int, deadlineStep Cycles) *System {
	t.Helper()
	if len(cost) != len(levels) {
		t.Fatalf("cost has %d entries for %d levels", len(cost), len(levels))
	}
	b := NewGraphBuilder()
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
		b.AddAction(names[i])
	}
	for i := 1; i < n; i++ {
		b.AddEdge(names[i-1], names[i])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cav := NewTimeFamily(levels, n, 0)
	cwc := NewTimeFamily(levels, n, 0)
	d := NewTimeFamily(levels, n, Inf)
	for qi, q := range levels {
		for a := 0; a < n; a++ {
			cav.Set(q, ActionID(a), cost[qi])
			cwc.Set(q, ActionID(a), cost[qi])
			d.Set(q, ActionID(a), Cycles(a+1)*deadlineStep)
		}
	}
	sys, err := NewSystem(g, levels, cav, cwc, d)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSparseLevelIndexAccounting locks in the level-index accounting:
// with the non-contiguous level set {0, 2, 5}, LevelSum, MeanLevel and
// Decision.LevelIndex must all speak in indexes (0, 1, 2), not in the
// raw level values — values would overstate quality (choosing the top
// level everywhere must read as mean 2, not 5) and disagree with the
// candidate-loop index arithmetic.
func TestSparseLevelIndexAccounting(t *testing.T) {
	levels := LevelSet{0, 2, 5}
	sys := chainSystem(t, levels, []Cycles{1, 5, 9}, 4, 1000)
	for _, tables := range []bool{true, false} {
		c := mustController(t, sys, WithTables(tables))
		var decided []Level
		res, err := c.RunCycle(func(a ActionID, q Level) Cycles {
			decided = append(decided, q)
			return sys.Cav.At(q, a)
		})
		if err != nil {
			t.Fatal(err)
		}
		// Deadlines are generous: the top level (value 5, index 2) is
		// chosen for every action.
		for i, q := range decided {
			if q != 5 || levels.Index(q) != 2 {
				t.Errorf("tables=%v step %d: level=%d index=%d, want 5/2", tables, i, q, levels.Index(q))
			}
		}
		if got := res.Stats.LevelSum; got != 2*4 {
			t.Errorf("tables=%v LevelSum = %d, want 8 (index sum), not the value sum 20", tables, got)
		}
		if got := res.MeanLevel(); got != 2 {
			t.Errorf("tables=%v MeanLevel = %v, want 2 (top index)", tables, got)
		}
		if res.Misses != 0 || res.Fallbacks != 0 {
			t.Errorf("tables=%v misses=%d fallbacks=%d", tables, res.Misses, res.Fallbacks)
		}
	}
}

// TestSparseLevelMissAccounting pins the loop's deadline read where a
// level's value and its index differ: RunCycleLeanWith reads the
// deadline through Decision.LevelIndex, and its miss count must equal
// the one recounted here through D.At(Level). Each level index gets its
// own deadline offset, so a read at the wrong level counts differently.
// Seeded actual costs up to twice Cwc break the contract often enough
// for misses at every level.
func TestSparseLevelMissAccounting(t *testing.T) {
	levels := LevelSet{0, 2, 5}
	const n = 6
	sys := chainSystem(t, levels, []Cycles{1, 5, 9}, n, 10)
	for qi, q := range levels {
		for a := 0; a < n; a++ {
			sys.D.Set(q, ActionID(a), Cycles(a+1)*10+Cycles(3*qi))
		}
	}
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for _, tables := range []bool{true, false} {
		c := mustController(t, sys, WithTables(tables))
		missesAt := make([]int, len(levels))
		for run := 0; run < 200; run++ {
			c.Reset()
			var elapsed Cycles
			want := 0
			res, err := c.RunCycle(func(a ActionID, q Level) Cycles {
				actual := Cycles(r.Intn(19))
				elapsed += actual
				if d := sys.D.At(q, a); !d.IsInf() && elapsed > d {
					want++
					missesAt[levels.Index(q)]++
				}
				return actual
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Misses != want {
				t.Fatalf("tables=%v run %d: RunCycle counted %d misses, D.At(Level) counts %d", tables, run, res.Misses, want)
			}
		}
		for qi, m := range missesAt {
			if m == 0 {
				t.Errorf("tables=%v: no miss at level %d (index %d); the test does not pin its deadline read", tables, levels[qi], qi)
			}
		}
	}
}

// TestSparseLevelDecisionIndex checks Decision.LevelIndex against a
// hand-picked sparse set when the controller is forced below the top:
// elapsed time leaves only the middle level admissible.
func TestSparseLevelDecisionIndex(t *testing.T) {
	levels := LevelSet{0, 2, 5}
	// D(a_i) = (i+1)·10; costs 1/5/9: q admissible at (i, t) iff
	// t ≤ 10(i+1) − cost_q (see the slack derivation in the tables).
	sys := chainSystem(t, levels, []Cycles{1, 5, 9}, 3, 10)
	c := mustController(t, sys)
	d, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d.Level != 5 || d.LevelIndex != 2 {
		t.Fatalf("first decision %+v, want level 5 index 2", d)
	}
	// Burn 12 cycles (> Cwc 9: contract broken): at i=1 the slacks are
	// 20−9=11 < 12 for the top, 20−5=15 ≥ 12 for the middle.
	c.Completed(12)
	d, err = c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d.Level != 2 || d.LevelIndex != 1 || d.Fallback {
		t.Fatalf("second decision %+v, want level 2 index 1, no fallback", d)
	}
	if got := c.Stats().LevelSum; got != 2+1 {
		t.Errorf("LevelSum = %d, want 3 (indexes 2+1)", got)
	}
}

// TestFallbackResetsSmoothnessBaseline locks the recovery behaviour
// after a forced fallback against a hand-computed trace: a fallback is
// not a level the controller chose, so WithMaxStep must not rate-limit
// the recovery from qmin.
//
// System: 4-action chain, levels {0,1,2}, costs 1/5/9, D(a_i)=10(i+1).
// Admissibility: q allowed at (i, t) iff t ≤ 10(i+1) − cost_q.
//
//	i=0 t=0:  top admissible (10−9=1 ≥ 0) → q2.
//	actual 20 (contract broken; Cwc=9):
//	i=1 t=20: q2: 11<20, q1: 15<20, q0: 19<20 → fallback to qmin.
//	actual 0:
//	i=2 t=20: q2 slack 30−9=21 ≥ 20 → q2 must be chosen immediately.
//	          (With the baseline stuck at qmin, maxStep=1 would cap the
//	          candidate at q1 — a level the controller never sustained.)
//	actual 9:
//	i=3 t=29: q2 slack 40−9=31 ≥ 29 → q2.
func TestFallbackResetsSmoothnessBaseline(t *testing.T) {
	levels := NewLevelRange(0, 2)
	sys := chainSystem(t, levels, []Cycles{1, 5, 9}, 4, 10)
	actuals := []Cycles{20, 0, 9, 9}
	want := []Decision{
		{Action: 0, Level: 2, LevelIndex: 2},
		{Action: 1, Level: 0, LevelIndex: 0, Fallback: true},
		{Action: 2, Level: 2, LevelIndex: 2},
		{Action: 3, Level: 2, LevelIndex: 2},
	}
	for _, tables := range []bool{true, false} {
		c := mustController(t, sys, WithMaxStep(1), WithTables(tables))
		for i, actual := range actuals {
			d, err := c.Next()
			if err != nil {
				t.Fatalf("tables=%v step %d: %v", tables, i, err)
			}
			if d != want[i] {
				t.Errorf("tables=%v step %d: decision %+v, want %+v", tables, i, d, want[i])
			}
			c.Completed(actual)
		}
		if !c.Done() {
			t.Fatalf("tables=%v: cycle not done", tables)
		}
		st := c.Stats()
		if st.Fallbacks != 1 {
			t.Errorf("tables=%v fallbacks = %d, want 1", tables, st.Fallbacks)
		}
		// Indexes 2+0+2+2; the value sum happens to agree here because
		// the set is contiguous.
		if st.LevelSum != 6 {
			t.Errorf("tables=%v LevelSum = %d, want 6", tables, st.LevelSum)
		}
	}
}

// TestCandidateEvalThresholdProbes locks in the CandidateEval semantics
// under the threshold engine: the field counts threshold PROBES (1 when
// the top candidate is admissible, ~log₂|Q| via binary search below
// it), while the linear-scan reference keeps counting candidate levels
// evaluated. Hand-computed on an 8-level chain with D(a_i) = 100(i+1)
// and per-level cost 1+qi, so the combined slack at position 0 is
// 100 − (1+qi) = 99..92.
func TestCandidateEvalThresholdProbes(t *testing.T) {
	levels := NewLevelRange(0, 7)
	cost := make([]Cycles, 8)
	for qi := range cost {
		cost[qi] = Cycles(1 + qi)
	}
	sys := chainSystem(t, levels, cost, 2, 100)

	// The reference is a custom evaluator, so it has no concrete
	// selector and decides through the Evaluator interface.
	ctrl := func(ref bool) *Controller {
		var c *Controller
		if ref {
			c = scanController(t, sys)
		} else {
			c = mustController(t, sys)
		}
		checkSelector(t, "probe run", c.Program())
		if (c.Program().tables == nil) != ref {
			t.Fatalf("ref=%v: concrete selector %p", ref, c.Program().tables)
		}
		return c
	}
	// Top admissible at t=0: one probe on both engines.
	for _, ref := range []bool{false, true} {
		c := ctrl(ref)
		if _, err := c.Next(); err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().CandidateEval; got != 1 {
			t.Errorf("ref=%v: CandidateEval = %d at t=0, want 1", ref, got)
		}
	}

	// At t=99 only qmin (slack 99) is admissible. The threshold engine
	// probes the top (fail), then binary-searches [0..6]: mid 3 fail,
	// mid 1 fail, mid 0 hit — 4 probes. The reference walks all 8
	// levels.
	run := func(ref bool) int {
		c := ctrl(ref)
		c.Preempt(99)
		d, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if d.LevelIndex != 0 || d.Fallback {
			t.Fatalf("ref=%v: decision %+v, want qmin without fallback", ref, d)
		}
		return c.Stats().CandidateEval
	}
	if got := run(false); got != 4 {
		t.Errorf("threshold CandidateEval = %d at t=99, want 4 (1 top probe + 3 binary-search probes)", got)
	}
	if got := run(true); got != 8 {
		t.Errorf("reference CandidateEval = %d at t=99, want 8 (full scan)", got)
	}
}

// TestPreemptShrinksAdmission checks that external CPU time charged via
// Preempt degrades admission exactly like a late cycle start: with 15 of
// the first deadline's 10-cycle slack pre-consumed, only qmin remains
// admissible at the first decision.
func TestPreemptShrinksAdmission(t *testing.T) {
	levels := NewLevelRange(0, 2)
	sys := chainSystem(t, levels, []Cycles{1, 5, 9}, 4, 10)
	c := mustController(t, sys)
	c.Preempt(-5) // negative preemption is ignored
	if c.Elapsed() != 0 {
		t.Fatalf("negative Preempt advanced time to %v", c.Elapsed())
	}
	c.Preempt(9)
	if c.Elapsed() != 9 {
		t.Fatalf("Elapsed = %v after Preempt(9)", c.Elapsed())
	}
	// At t=9: q2 slack 10−9=1 < 9; q1 slack 5 < 9; q0 slack 9 ≥ 9.
	d, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d.Level != 0 || d.Fallback {
		t.Fatalf("decision %+v, want qmin without fallback", d)
	}
}
