package session

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

func demoSystem(t testing.TB) *core.System {
	t.Helper()
	sys, err := demoBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSessionRunCountsAndHooks(t *testing.T) {
	sys := demoSystem(t)
	var decisions, completions, fallbacks int
	s, err := NewSession(sys, WithObserver(FuncObserver{
		Decision:   func(core.Decision) { decisions++ },
		Completion: func(_ core.Decision, _, _ core.Cycles) { completions++ },
		Fallback:   func(core.Decision) { fallbacks++ },
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
		return sys.Cav.At(q, a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 || res.Steps != 3 {
		t.Fatalf("run: %+v", res)
	}
	if decisions != 3 || completions != 3 || fallbacks != 0 {
		t.Fatalf("hooks: decisions=%d completions=%d fallbacks=%d", decisions, completions, fallbacks)
	}
	// Reset reuses the session for the next cycle.
	s.Reset()
	if _, err := s.RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
		return sys.Cwc.At(q, a)
	}); err != nil {
		t.Fatal(err)
	}
	if decisions != 6 {
		t.Fatalf("hooks did not fire across Reset: decisions=%d", decisions)
	}
}

// TestSessionLeanRun: Run's scalar results agree with the decisions an
// observer records, and a plain session's cycle allocates nothing in
// steady state.
func TestSessionLeanRun(t *testing.T) {
	sys := demoSystem(t)
	work := func(a core.ActionID, q core.Level) core.Cycles {
		return sys.Cav.At(q, a)
	}
	var decided []core.Decision
	traced, err := NewSession(sys, WithObserver(FuncObserver{
		Decision: func(d core.Decision) { decided = append(decided, d) },
	}))
	if err != nil {
		t.Fatal(err)
	}
	tres, err := traced.RunFunc(work)
	if err != nil {
		t.Fatal(err)
	}
	var sum int
	for _, d := range decided {
		sum += d.LevelIndex
	}
	if tres.Steps != len(decided) || tres.Stats.Decisions != len(decided) {
		t.Fatalf("Steps %d, Decisions %d, observed %d", tres.Steps, tres.Stats.Decisions, len(decided))
	}
	if want := float64(sum) / float64(len(decided)); tres.MeanLevel() != want {
		t.Fatalf("MeanLevel %v, observed mean %v", tres.MeanLevel(), want)
	}
	plain, err := NewSession(sys)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := plain.RunFunc(work)
	if err != nil {
		t.Fatal(err)
	}
	if pres != tres {
		t.Fatalf("observer changed the result:\nplain  %+v\ntraced %+v", pres, tres)
	}
	allocs := testing.AllocsPerRun(50, func() {
		plain.Reset()
		if _, err := plain.RunFunc(work); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state cycle allocates %v times, want 0", allocs)
	}
}

// TestSessionRunWithoutResetFails: a second Run on a finished cycle is
// refused instead of reporting an empty cycle with the previous
// cycle's statistics, and the runtime counts nothing for it.
func TestSessionRunWithoutResetFails(t *testing.T) {
	sys := demoSystem(t)
	rt, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	s := rt.Acquire()
	defer rt.Release(s)
	work := func(a core.ActionID, q core.Level) core.Cycles {
		return sys.Cav.At(q, a)
	}
	if _, err := s.RunFunc(work); err != nil {
		t.Fatal(err)
	}
	before := rt.Stats()
	for i := 0; i < 2; i++ {
		if res, err := s.RunFunc(work); err == nil {
			t.Fatalf("Run %d without Reset succeeded: %+v", i+2, res)
		}
	}
	if after := rt.Stats(); after.Cycles != before.Cycles || after.Actions != before.Actions {
		t.Fatalf("runtime counted a cycle that ran nothing: before %+v, after %+v", before, after)
	}
	s.Reset()
	if _, err := s.RunFunc(work); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
}

func TestSessionFallbackHook(t *testing.T) {
	sys := demoSystem(t)
	var fallbacks int
	s, err := NewSession(sys, WithObserver(FuncObserver{
		Fallback: func(core.Decision) { fallbacks++ },
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Breach the worst-case contract: every action takes far longer
	// than its Cwc, forcing the controller into qmin fallback.
	res, err := s.RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
		return sys.Cwc.At(q, a) * 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks == 0 || fallbacks != res.Fallbacks {
		t.Fatalf("fallback hook mismatch: hook=%d result=%d", fallbacks, res.Fallbacks)
	}
}

func TestSessionRecorderObserver(t *testing.T) {
	sys := demoSystem(t)
	rec := trace.NewRecorder(sys.Levels, sys.Graph.Len())
	s, err := NewSession(sys, WithObserver(RecorderObserver(rec, nil)))
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 4; cycle++ {
		s.Reset()
		if _, err := s.RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
			return sys.Cav.At(q, a)
		}); err != nil {
			t.Fatal(err)
		}
	}
	var samples int64
	for a := 0; a < sys.Graph.Len(); a++ {
		for _, q := range sys.Levels {
			samples += rec.Count(core.ActionID(a), q)
		}
	}
	if samples != 12 {
		t.Fatalf("recorder saw %d samples, want 12", samples)
	}
	// The recorded samples round-trip into valid families.
	cav, cwc, err := rec.Estimate(trace.EstimateConfig{WcMargin: 1.25, FillUnsampled: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !cav.NonDecreasing() || !cwc.NonDecreasing() {
		t.Fatal("estimated families not monotone")
	}
}

func TestSessionEWMAObserver(t *testing.T) {
	sys := demoSystem(t)
	ewma, err := trace.NewEWMA(sys.Levels, sys.Graph.Len(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(sys, WithObserver(EWMAObserver(ewma, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
		return sys.Cav.At(q, a)
	}); err != nil {
		t.Fatal(err)
	}
	var observed bool
	for a := 0; a < sys.Graph.Len(); a++ {
		for _, q := range sys.Levels {
			if _, ok := ewma.Estimate(core.ActionID(a), q); ok {
				observed = true
			}
		}
	}
	if !observed {
		t.Fatal("EWMA observer recorded nothing")
	}
}

func TestSessionControllerOptions(t *testing.T) {
	sys := demoSystem(t)
	s, err := NewSession(sys, WithControllerOptions(core.WithMode(core.Soft), core.WithMaxStep(1)))
	if err != nil {
		t.Fatal(err)
	}
	if s.Controller().Program().Mode() != core.Soft {
		t.Fatal("mode option not forwarded")
	}
}

func TestParseModelBuildsSystem(t *testing.T) {
	src := `
levels 0 1
action a
action b
edge a b
time a * 10 20
time b 0 10 20
time b 1 30 50
deadline b * 100
`
	b, err := ParseModel(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bid, _ := sys.Graph.Lookup("b")
	if sys.Cav.At(1, bid) != 30 || sys.D.At(0, bid) != 100 {
		t.Fatal("model tables not applied")
	}
	// The absorbed model drives a session directly.
	s, err := NewSession(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
		return sys.Cav.At(q, a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatalf("misses = %d", res.Misses)
	}
}

func TestParseModelZeroTimeDefault(t *testing.T) {
	// The text format defaults unspecified times to 0; the builder's
	// coverage check must not reject absorbed models for that.
	src := "levels 0 1\naction a\naction b\nedge a b\ntime a * 1 2\n"
	b, err := ParseModel(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bid, _ := sys.Graph.Lookup("b")
	if sys.Cav.At(0, bid) != 0 || sys.Cwc.At(1, bid) != 0 {
		t.Fatal("unspecified time did not default to 0")
	}
}

// TestParseModelRejectsNegativeLevel holds the time and deadline
// directives to non-negative levels: "-1" once read as the "*" wildcard,
// so a model meant for one level applied to all of them.
func TestParseModelRejectsNegativeLevel(t *testing.T) {
	for _, c := range []struct{ src, level string }{
		{"levels 0 2\naction a\ntime a -1 5 9\n", "-1"},
		{"levels 0 2\naction a\ntime a * 5 9\ndeadline a -1 100\n", "-1"},
		{"levels 0 2\naction a\ntime a -3 5 9\n", "-3"},
		{"levels 0 2\naction a\ntime a * 5 9\ndeadline a -3 100\n", "-3"},
	} {
		b, err := ParseModel(strings.NewReader(c.src))
		if err == nil || b != nil {
			t.Fatalf("%q: builder %v, error %v", c.src, b != nil, err)
		}
		if want := fmt.Sprintf("bad level %q", c.level); !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %q does not say %s", c.src, err, want)
		}
	}
}
