package session

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

// stepEvent is one observer callback as a recorder saw it.
type stepEvent struct {
	kind            string
	d               core.Decision
	actual, elapsed core.Cycles
}

// recorder is an Observer that records every callback in order.
type recorder struct{ events []stepEvent }

func (r *recorder) OnDecision(d core.Decision) {
	r.events = append(r.events, stepEvent{kind: "decision", d: d})
}

func (r *recorder) OnFallback(d core.Decision) {
	r.events = append(r.events, stepEvent{kind: "fallback", d: d})
}

func (r *recorder) OnCompletion(d core.Decision, actual, elapsed core.Cycles) {
	r.events = append(r.events, stepEvent{kind: "completion", d: d, actual: actual, elapsed: elapsed})
}

// drawWork draws each action's cost uniformly from [Cav, scale·Cwc]:
// scale 1 honours the worst-case contract, a larger scale breaks it.
// With negate, every 11th cost is reported negated, which the
// controller counts as zero and the observers see as reported.
func drawWork(sys *core.System, seed uint64, scale float64, negate bool) func(core.ActionID, core.Level) core.Cycles {
	rng := platform.NewRNG(seed)
	n := 0
	return func(a core.ActionID, q core.Level) core.Cycles {
		av, wc := sys.Cav.At(q, a), sys.Cwc.At(q, a)
		c := av.AddSat(core.Cycles(rng.Float64() * (scale*float64(wc) - float64(av))))
		if n++; negate && n%11 == 0 {
			return -c
		}
		return c
	}
}

// TestRunMatchesHandDrivenObserverStream holds Session.Run, which runs
// core.RunCycleObserved with the session's observers, to a twin session
// driven by hand through Next and Completed: the same OnDecision,
// OnFallback and OnCompletion(actual, elapsed) sequence, and the same
// cycle results. The over-contract workload forces fallbacks, negated
// costs check that observers see the cost as reported, and a second
// observer on the Run session takes the fan-out path.
func TestRunMatchesHandDrivenObserverStream(t *testing.T) {
	b, err := LoadModel(filepath.Join("..", "..", "examples", "models", "mpeg_body.qos"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		scale  float64
		negate bool
		obs    int
	}{
		{"contract, one observer", 1, false, 1},
		{"contract, two observers", 1, false, 2},
		{"over contract, one observer", 3, false, 1},
		{"over contract, two observers", 3, false, 2},
		{"negative costs", 1, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := make([]*recorder, tc.obs)
			var opts []SessionOption
			for i := range recs {
				recs[i] = &recorder{}
				opts = append(opts, WithObserver(recs[i]))
			}
			run, err := NewSession(sys, opts...)
			if err != nil {
				t.Fatal(err)
			}
			hand := &recorder{}
			twin, err := NewSession(sys, WithObserver(hand))
			if err != nil {
				t.Fatal(err)
			}
			runWork, handWork := drawWork(sys, 17, tc.scale, tc.negate), drawWork(sys, 17, tc.scale, tc.negate)
			fallbacks := 0
			for cycle := 0; cycle < 20; cycle++ {
				where := fmt.Sprintf("cycle %d", cycle)
				handicap := core.Cycles(cycle) * 20_000
				run.Reset()
				twin.Reset()
				run.Preempt(handicap)
				twin.Preempt(handicap)
				res, err := run.RunFunc(runWork)
				if err != nil {
					t.Fatal(err)
				}
				var want core.CycleResult
				for !twin.Done() {
					d, err := twin.Next()
					if err != nil {
						t.Fatal(err)
					}
					twin.Completed(handWork(d.Action, d.Level))
					if dl := sys.D.At(d.Level, d.Action); !dl.IsInf() && twin.Elapsed() > dl {
						want.Misses++
					}
					if d.Fallback {
						want.Fallbacks++
					}
					want.Steps++
				}
				want.Elapsed = twin.Elapsed()
				want.Stats = twin.Stats()
				if res != want {
					t.Fatalf("%s: Run %+v, by hand %+v", where, res, want)
				}
				for i, r := range recs {
					if !reflect.DeepEqual(r.events, hand.events) {
						t.Fatalf("%s: observer %d saw %d events, by hand %d; first difference at %d", where, i, len(r.events), len(hand.events), firstDiff(r.events, hand.events))
					}
				}
				fallbacks += res.Fallbacks
			}
			if tc.scale > 1 && fallbacks == 0 {
				t.Fatal("the over-contract workload forced no fallback")
			}
			if n := len(hand.events); n == 0 {
				t.Fatal("no events recorded")
			}
		})
	}
}

func firstDiff(a, b []stepEvent) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestExecutorIsolatesSessionPanic runs a session through
// platform.Executor.RunControlled with a panicking workload: the
// executor returns ErrWorkloadPanic, the controller is quarantined and
// the leased grant released, and the panic does not unwind into the
// caller.
func TestExecutorIsolatesSessionPanic(t *testing.T) {
	sys := demoSystem(t)
	rt, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	lease := &fakeLease{}
	s := rt.AcquireBudgeted(lease)
	defer rt.Release(s)
	ex := platform.NewExecutor()
	steps := 0
	_, err = ex.RunControlled(s, platform.WorkloadFunc(func(a core.ActionID, q core.Level) core.Cycles {
		if steps++; steps == 2 {
			panic("boom")
		}
		return sys.Cav.At(q, a)
	}))
	if !errors.Is(err, ErrWorkloadPanic) {
		t.Fatalf("RunControlled returned %v, want ErrWorkloadPanic", err)
	}
	if !s.Controller().Quarantined() {
		t.Fatal("controller not quarantined")
	}
	if lease.released != 1 {
		t.Fatalf("grant released %d times, want 1", lease.released)
	}
	if st := rt.Stats(); st.Quarantined != 1 {
		t.Fatalf("runtime counted %d quarantines, want 1", st.Quarantined)
	}
}
