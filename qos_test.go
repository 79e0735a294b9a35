package qos_test

import (
	"testing"

	qos "repro"
)

// buildDemoSystem assembles a small system through the public API only.
func buildDemoSystem(t testing.TB) *qos.System {
	t.Helper()
	b := qos.NewSystemBuilder().
		Levels(0, 2).
		Actions("in", "work", "out").
		Chain("in", "work", "out").
		TimeAll("in", 5, 8).
		TimeAll("out", 5, 8).
		DeadlineAll("out", 100)
	for qi := 0; qi <= 2; qi++ {
		b.Time("work", qos.Level(qi), qos.Cycles(10*(qi+1)), qos.Cycles(20*(qi+1)))
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicAPIControllerRoundtrip(t *testing.T) {
	sys := buildDemoSystem(t)
	prog, err := qos.NewProgram(sys, qos.WithMode(qos.Hard))
	if err != nil {
		t.Fatal(err)
	}
	ctrl := prog.NewController()
	rng := qos.NewRNG(1)
	for cycle := 0; cycle < 3; cycle++ {
		ctrl.Reset()
		res, err := ctrl.RunCycle(func(a qos.ActionID, q qos.Level) qos.Cycles {
			av := sys.Cav.At(q, a)
			wc := sys.Cwc.At(q, a)
			return av + qos.Cycles(rng.Float64()*float64(wc-av))
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Misses != 0 {
			t.Fatalf("cycle %d missed %d deadlines", cycle, res.Misses)
		}
	}
}

func TestPublicAPIEDF(t *testing.T) {
	sys := buildDemoSystem(t)
	alpha := qos.EDFSchedule(sys.Graph, sys.Cwc.AtIndex(0), sys.D.AtIndex(0))
	if !sys.Graph.IsSchedule(alpha) {
		t.Fatal("EDF schedule invalid")
	}
	if !qos.Feasible(alpha, sys.Cwc.AtIndex(0), sys.D.AtIndex(0)) {
		t.Fatal("demo system infeasible at qmin")
	}
	dstar := qos.ModifiedDeadlines(sys.Graph, sys.Cwc.AtIndex(0), sys.D.AtIndex(0))
	if dstar[0].IsInf() {
		t.Fatal("deadline modification did not propagate")
	}
}

func TestPublicAPIExecutor(t *testing.T) {
	sys := buildDemoSystem(t)
	prog, err := qos.NewProgram(sys)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := prog.NewController()
	ex := qos.NewExecutor()
	// The default per-decision overhead is sized for Mcycle-scale
	// frames; the demo system's whole cycle is 100 cycles.
	ex.DecisionOverhead = 0
	rep, err := ex.RunControlled(ctrl, qos.WorkloadFunc(func(a qos.ActionID, q qos.Level) qos.Cycles {
		return sys.Cav.At(q, a)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Misses != 0 || rep.Actions != 3 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestPublicAPIMPEGPipeline(t *testing.T) {
	cfg := qos.DefaultVideoConfig()
	cfg.Frames = 30
	cfg.Macroblocks = 40
	src, err := qos.NewVideoSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := qos.RunPipeline(qos.PipelineConfig{Source: src, K: 1, Controlled: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skips != 0 || res.Misses != 0 {
		t.Fatalf("controlled pipeline: skips=%d misses=%d", res.Skips, res.Misses)
	}
	g, err := qos.MPEGBodyGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 9 {
		t.Fatal("body graph size")
	}
	if qos.MPEGLevels().Max() != 7 {
		t.Fatal("level set")
	}
}

func TestPublicAPIIterativeTables(t *testing.T) {
	// A one-action body iterated 4 times under a 200-cycle budget.
	body, err := qos.NewSystemBuilder().
		Levels(0, 1).
		Action("x").
		Time("x", 0, 10, 20).
		Time("x", 1, 30, 40).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	it, err := qos.NewIterativeTables(body, []qos.ActionID{0}, 4, 200)
	if err != nil {
		t.Fatal(err)
	}
	if it.MinFeasibleBudget() != 80 {
		t.Fatalf("min feasible = %v", it.MinFeasibleBudget())
	}
}
