package mpeg

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/session"
	"repro/internal/video"
)

// TestExecutorMatchesCoreLoop holds platform.Executor.RunControlled to
// the plain core loop on the MPEG frame system, in the iterative-table
// and per-macroblock-deadline configurations, hard and soft: a twin
// encoder runs each frame through core.RunCycleLeanWith with the
// decision overhead folded into every action's cost, which is the time
// the executor's controller sees on its SimClock. The report must agree
// with that cycle, account its clock exactly (every decision pays the
// overhead, elapsed is work plus control), and count the misses a
// Completion observer recounts against System().D.
func TestExecutorMatchesCoreLoop(t *testing.T) {
	const (
		n      = 12
		frames = 3
	)
	ov := platform.DefaultDecisionOverhead
	budget0 := 2 * (MacroblockWc(0) + NumActions*ov) * n
	misses := 0
	for seed := uint64(1); seed <= 24; seed++ {
		for _, perMB := range []bool{false, true} {
			opts := []ControlledOption{}
			if perMB {
				opts = append(opts, WithPerMacroblockDeadlines())
			}
			if seed%2 == 0 {
				opts = append(opts, WithControllerOptions(core.WithMode(core.Soft)))
			}
			enc, err := NewControlled(n, budget0, seed, opts...)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewControlled(n, budget0, seed, opts...)
			if err != nil {
				t.Fatal(err)
			}
			recount := 0
			enc.Sess.Observe(session.FuncObserver{
				Completion: func(d core.Decision, _, elapsed core.Cycles) {
					if dl := enc.Sess.System().D.At(d.Level, d.Action); !dl.IsInf() && elapsed > dl {
						recount++
					}
				},
			})
			cfg := video.DefaultConfig()
			cfg.Frames = frames
			cfg.Sequences = 1
			cfg.Macroblocks = n
			cfg.Seed = seed
			src, err := video.NewSource(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := platform.NewRNG(seed)
			lo, hi := enc.FS.MinFeasibleBudget(), enc.FS.WorstCaseBudget(3)
			for i := 0; i < frames; i++ {
				f := src.Frame(i)
				budget := lo + core.Cycles(rng.Float64()*float64(hi-lo))
				for _, e := range []*Encoder{enc, twin} {
					if err := e.FS.SetBudget(budget, e.Sess.Controller()); err != nil {
						t.Fatal(err)
					}
					e.Sess.Reset()
				}
				recount = 0
				rep, err := enc.Exec.RunControlled(enc.Sess, NewWorkload(&f, enc.frameRNG(f.Index)))
				if err != nil {
					t.Fatal(err)
				}
				w := NewWorkload(&f, twin.frameRNG(f.Index))
				res, err := core.RunCycleLeanWith(twin.Sess.Controller(), func(a core.ActionID, q core.Level) core.Cycles {
					return w.Cost(a, q).AddSat(ov)
				})
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("seed %d perMB=%v frame %d", seed, perMB, i)
				if rep.Actions != res.Steps || res.Steps != enc.FS.Sys.Graph.Len() {
					t.Fatalf("%s: Actions %d, Steps %d, actions in frame %d", where, rep.Actions, res.Steps, enc.FS.Sys.Graph.Len())
				}
				if rep.CtrlCycles != core.Cycles(res.Steps)*ov {
					t.Fatalf("%s: CtrlCycles %v, want %d × %v", where, rep.CtrlCycles, res.Steps, ov)
				}
				if rep.Elapsed != rep.WorkCycles+rep.CtrlCycles || rep.Elapsed != res.Elapsed {
					t.Fatalf("%s: Elapsed %v, work %v + ctrl %v, core loop %v", where, rep.Elapsed, rep.WorkCycles, rep.CtrlCycles, res.Elapsed)
				}
				if rep.Misses != recount || rep.Misses != res.Misses {
					t.Fatalf("%s: Misses %d, observer recount %d, core loop %d", where, rep.Misses, recount, res.Misses)
				}
				if rep.Fallbacks != res.Fallbacks || rep.LevelSum != res.Stats.LevelSum {
					t.Fatalf("%s: fallbacks %d/%d, level sum %d/%d", where, rep.Fallbacks, res.Fallbacks, rep.LevelSum, res.Stats.LevelSum)
				}
				misses += rep.Misses
			}
		}
	}
	if misses == 0 {
		t.Error("no soft run missed a deadline; the miss recount went untested")
	}
}
