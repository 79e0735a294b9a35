package mpeg

import (
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/video"
)

func TestFrameGraphSize(t *testing.T) {
	for _, n := range []int{1, 3, 10} {
		g, err := FrameGraph(n)
		if err != nil {
			t.Fatal(err)
		}
		if g.Len() != n*NumActions {
			t.Fatalf("FrameGraph(%d) has %d actions", n, g.Len())
		}
		if !g.IsSchedule(g.Topo()) {
			t.Fatalf("FrameGraph(%d) topo invalid", n)
		}
	}
	if _, err := FrameGraph(0); err == nil {
		t.Fatal("FrameGraph(0) accepted")
	}
}

func TestFrameGraphChainsMacroblocks(t *testing.T) {
	g, err := FrameGraph(2)
	if err != nil {
		t.Fatal(err)
	}
	// Grab of MB 1 must come after the sinks of MB 0.
	if !g.Reachable(JoinID(Compress, 0), JoinID(GrabMacroBlock, 1)) {
		t.Error("macroblock 1 not chained after macroblock 0 (Compress)")
	}
	if !g.Reachable(JoinID(Reconstruct, 0), JoinID(GrabMacroBlock, 1)) {
		t.Error("macroblock 1 not chained after macroblock 0 (Reconstruct)")
	}
}

func TestWorkloadDeterministicGivenRNG(t *testing.T) {
	f := testFrame(t, video.PFrame)
	w1 := NewWorkload(f, platform.NewRNG(55))
	w2 := NewWorkload(f, platform.NewRNG(55))
	for a := 0; a < NumActions*4; a++ {
		id := core.ActionID(a % (NumActions * len(f.MBs)))
		if w1.Cost(id, 3) != w2.Cost(id, 3) {
			t.Fatalf("workload nondeterministic at action %d", a)
		}
	}
}

func TestWorkloadScalesWithMotion(t *testing.T) {
	f := testFrame(t, video.PFrame)
	// Two synthetic MBs differing only in motion.
	f2 := *f
	f2.MBs = []video.Macroblock{{Motion: 0.3, Texture: 1}, {Motion: 2.0, Texture: 1}}
	var lo, hi core.Cycles
	const reps = 64
	for i := 0; i < reps; i++ {
		w := NewWorkload(&f2, platform.NewRNG(uint64(i+1)))
		lo += w.Cost(JoinID(MotionEstimate, 0), 4)
		hi += w.Cost(JoinID(MotionEstimate, 1), 4)
	}
	if hi <= lo {
		t.Errorf("high-motion MB not more expensive: %v vs %v", hi, lo)
	}
}

func TestSetBudgetNoopOnSameValue(t *testing.T) {
	fs, err := BuildSystem(SystemConfig{Macroblocks: 2, Budget: core.Mcycle})
	if err != nil {
		t.Fatal(err)
	}
	// Same budget must not error even mid-cycle semantics-wise (it is a
	// no-op and performs no retarget).
	if err := fs.SetBudget(core.Mcycle, nil); err != nil {
		t.Fatal(err)
	}
}

func TestControlledEncoderSmoothnessOption(t *testing.T) {
	cfg := video.DefaultConfig()
	cfg.Frames = 6
	cfg.Sequences = 2
	cfg.Macroblocks = 40
	cfg.SequenceLoad = []float64{0.9, 1.1}
	src, err := video.NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewControlled(40, cfg.Period, 1,
		WithControllerOptions(core.WithMaxStep(1)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < src.Len(); i++ {
		f := src.Frame(i)
		rep, err := enc.EncodeFrame(&f, cfg.Period)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Misses != 0 {
			t.Fatalf("smoothed encoder missed at frame %d", i)
		}
	}
}

func TestPerMBDeadlineEncoderFeasibility(t *testing.T) {
	// The per-MB variant distributes the budget proportionally; it must
	// construct and run for a feasible budget.
	n := 10
	budget := MacroblockWc(0)*core.Cycles(n) + 10*core.Mcycle
	enc, err := NewControlled(n, budget, 1, WithPerMacroblockDeadlines(),
		WithDecisionOverhead(0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := video.DefaultConfig()
	cfg.Frames = 10
	cfg.Sequences = 2
	cfg.Macroblocks = n
	cfg.SequenceLoad = []float64{0.9, 1.1}
	src, err := video.NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := src.Frame(3)
	rep, err := enc.EncodeFrame(&f, budget)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Misses != 0 {
		t.Fatalf("per-MB encoder missed: %+v", rep)
	}
}

// TestBuildSystemMatchesPerActionExpansion holds the frame system's
// times to the per-macroblock expansion BuildSystem ran before it tiled
// the body's: every action's figure 5 times plus the decision overhead.
func TestBuildSystemMatchesPerActionExpansion(t *testing.T) {
	for _, cfg := range []SystemConfig{
		{Macroblocks: 1, Budget: core.Mcycle},
		{Macroblocks: 7, Budget: 3 * core.Mcycle, DecisionOverhead: 500},
		{Macroblocks: 40, Budget: 9 * core.Mcycle, PerMacroblockDeadlines: true},
	} {
		fs, err := BuildSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := FrameGraph(cfg.Macroblocks)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fs.Sys.Graph.String(), g.String(); got != want {
			t.Fatalf("%+v: frame graph differs from FrameGraph", cfg)
		}
		for a := 0; a < g.Len(); a++ {
			base, _ := SplitID(core.ActionID(a))
			for _, q := range Levels() {
				av, wc := Times(base, q)
				if got := fs.Sys.Cav.At(q, core.ActionID(a)); got != av.AddSat(cfg.DecisionOverhead) {
					t.Fatalf("%+v: Cav of %s at %d = %v, want %v", cfg, g.Name(core.ActionID(a)), q, got, av.AddSat(cfg.DecisionOverhead))
				}
				if got := fs.Sys.Cwc.At(q, core.ActionID(a)); got != wc.AddSat(cfg.DecisionOverhead) {
					t.Fatalf("%+v: Cwc of %s at %d = %v, want %v", cfg, g.Name(core.ActionID(a)), q, got, wc.AddSat(cfg.DecisionOverhead))
				}
			}
		}
	}
}
