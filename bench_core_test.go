// BenchmarkControllerDecision / BenchmarkRetarget and their JSON
// emitter: the decision hot path itself is the benchmark target (the
// paper's viability claim is that per-decision overhead is near zero).
// The emitter (TestEmitCoreBenchJSON) writes BENCH_core.json when
// BENCH_CORE_JSON names the output path; CI runs both on every push:
//
//	BENCH_CORE_JSON=BENCH_core.json \
//	  go test -run TestEmitCoreBenchJSON -bench ControllerDecision -benchtime=1x .
//
// The emitter also enforces the engine's contract: >= 2x ns/decision
// over the linear-scan reference at 16 levels and zero allocations per
// Next+Completed on the table path. Its retarget section reports the
// per-frame cost of re-targeting per-macroblock deadlines, ungated.
package qos_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mpeg"
)

// benchDecisionSystem builds a chain of nActions with nLevels quality
// levels, per-level cost (qi+1)*100 and per-action deadline step sized
// so that a workload consuming exactly `step` cycles per action settles
// at the middle level: every decision makes the linear scan walk about
// half the level set while the threshold engine binary-searches it.
func benchDecisionSystem(tb testing.TB, nLevels, nActions int) (*core.System, core.Cycles) {
	tb.Helper()
	levels := core.NewLevelRange(0, core.Level(nLevels-1))
	b := core.NewGraphBuilder()
	names := make([]string, nActions)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
		b.AddAction(names[i])
	}
	for i := 1; i < nActions; i++ {
		b.AddEdge(names[i-1], names[i])
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	step := core.Cycles(nLevels/2+1)*100 + 50
	cav := core.NewTimeFamily(levels, nActions, 0)
	cwc := core.NewTimeFamily(levels, nActions, 0)
	d := core.NewTimeFamily(levels, nActions, core.Inf)
	for qi, q := range levels {
		c := core.Cycles(qi+1) * 100
		for a := 0; a < nActions; a++ {
			cav.Set(q, core.ActionID(a), c)
			cwc.Set(q, core.ActionID(a), c)
			d.Set(q, core.ActionID(a), core.Cycles(a+1)*step)
		}
	}
	sys, err := core.NewSystem(g, levels, cav, cwc, d)
	if err != nil {
		tb.Fatal(err)
	}
	return sys, step
}

// benchDecisionLoop drives Next+Completed for b.N decisions (cycles
// reset inline; the amortised O(1/n) reset cost is part of the serving
// reality).
func benchDecisionLoop(b *testing.B, sys *core.System, actual core.Cycles, opts ...core.Option) {
	b.Helper()
	ctrl, err := core.NewController(sys, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ctrl.Done() {
			ctrl.Reset()
		}
		if _, err := ctrl.Next(); err != nil {
			b.Fatal(err)
		}
		ctrl.Completed(actual)
	}
}

// linearScan is the linear-scan reference decision the threshold engine
// is measured against: it wraps the table evaluator and probes it
// through the core.Evaluator interface from the top level down, one
// probe per level tried.
type linearScan struct{ core.Evaluator }

func (s linearScan) MaxAdmissibleLevel(i, hi int, t core.Cycles, soft bool) (int, int) {
	probes := 0
	for qi := hi; qi >= 0; qi-- {
		probes++
		if soft && s.AllowedAv(qi, i, t) || !soft && core.Allowed(s.Evaluator, qi, i, t) {
			return qi, probes
		}
	}
	return -1, probes
}

// linearScanOption puts a controller over sys on the linear-scan
// reference: the tables and order of the default program, scanned.
func linearScanOption(tb testing.TB, sys *core.System) core.Option {
	tb.Helper()
	p, err := core.NewProgram(sys)
	if err != nil {
		tb.Fatal(err)
	}
	return core.WithEvaluator(linearScan{p.Evaluator()}, p.Schedule())
}

// BenchmarkControllerDecision measures one controller decision across
// level counts on the tables — threshold engine vs the retained
// linear-scan reference.
func BenchmarkControllerDecision(b *testing.B) {
	for _, nl := range []int{4, 8, 16, 32} {
		sys, step := benchDecisionSystem(b, nl, 64)
		b.Run(fmt.Sprintf("levels-%d/table-threshold", nl), func(b *testing.B) {
			benchDecisionLoop(b, sys, step)
		})
		b.Run(fmt.Sprintf("levels-%d/table-linear-scan", nl), func(b *testing.B) {
			benchDecisionLoop(b, sys, step, linearScanOption(b, sys))
		})
	}
}

// benchRetargetSystem: an mpeg frame system with per-macroblock
// deadlines and a controller over it. Its deadlines scale non-uniformly
// with the frame budget, so every budget change re-targets the
// controller through a table rebuild (Controller.Retarget).
func benchRetargetSystem(tb testing.TB, macroblocks int) (*mpeg.FrameSystem, *core.Controller, core.Cycles) {
	tb.Helper()
	budget := core.Cycles(macroblocks) * 300_000
	fs, err := mpeg.BuildSystem(mpeg.SystemConfig{
		Macroblocks: macroblocks, Budget: budget, PerMacroblockDeadlines: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	ctrl, err := core.NewController(fs.Sys)
	if err != nil {
		tb.Fatal(err)
	}
	return fs, ctrl, budget
}

// benchPerMBRetarget alternates the frame budget between two values
// and re-targets the controller to each (FrameSystem.SetBudget).
func benchPerMBRetarget(b *testing.B, mbs int) {
	fs, ctrl, budget := benchRetargetSystem(b, mbs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.SetBudget(budget+core.Cycles(1+i%2)*50_000, ctrl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetarget measures per-frame budget re-targeting of a
// per-macroblock-deadline frame: a table rebuild per budget change.
func BenchmarkRetarget(b *testing.B) {
	b.Run("permb-rebuild", func(b *testing.B) { benchPerMBRetarget(b, 100) })
}

// coreBenchPoint is one BENCH_core.json decision-path row.
type coreBenchPoint struct {
	Path          string  `json:"path"`
	Levels        int     `json:"levels"`
	Actions       int     `json:"actions"`
	NsPerDecision float64 `json:"ns_per_decision"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
}

// coreBenchRetarget is the BENCH_core.json retarget section: one
// per-macroblock-deadline budget change, re-targeted by a rebuild.
type coreBenchRetarget struct {
	Macroblocks    int     `json:"macroblocks"`
	PerMBRebuildNs float64 `json:"permb_rebuild_ns"`
}

// coreBenchFile is the BENCH_core.json schema.
type coreBenchFile struct {
	Benchmark            string            `json:"benchmark"`
	GoVersion            string            `json:"go_version"`
	GOMAXPROCS           int               `json:"gomaxprocs"`
	Points               []coreBenchPoint  `json:"points"`
	SpeedupAt16Levels    float64           `json:"speedup_threshold_vs_linear_at_16_levels"`
	Retarget             coreBenchRetarget `json:"retarget"`
	AcceptanceSpeedupMin float64           `json:"acceptance_speedup_min"`
}

// TestEmitCoreBenchJSON measures the decision hot path and the
// per-macroblock retarget and writes BENCH_core.json (path from
// BENCH_CORE_JSON; skipped when unset). It fails — not just reports —
// when the threshold engine loses its >= 2x edge at 16 levels or when
// the table path allocates.
func TestEmitCoreBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_CORE_JSON")
	if out == "" {
		t.Skip("BENCH_CORE_JSON not set")
	}
	const nActions = 64
	file := coreBenchFile{
		Benchmark:            "ControllerDecision",
		GoVersion:            runtime.Version(),
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		AcceptanceSpeedupMin: 2,
	}
	perPath := map[string]map[int]float64{}
	for _, nl := range []int{4, 8, 16, 32} {
		sys, step := benchDecisionSystem(t, nl, nActions)
		for _, path := range []struct {
			name string
			opts []core.Option
		}{
			{"table-threshold", nil},
			{"table-linear-scan", []core.Option{linearScanOption(t, sys)}},
		} {
			r := testing.Benchmark(func(b *testing.B) {
				benchDecisionLoop(b, sys, step, path.opts...)
			})
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			if perPath[path.name] == nil {
				perPath[path.name] = map[int]float64{}
			}
			perPath[path.name][nl] = ns
			file.Points = append(file.Points, coreBenchPoint{
				Path:          path.name,
				Levels:        nl,
				Actions:       nActions,
				NsPerDecision: ns,
				AllocsPerOp:   r.AllocsPerOp(),
			})
			if r.AllocsPerOp() != 0 {
				t.Errorf("%s at %d levels: %d allocs/op for Next+Completed, want 0", path.name, nl, r.AllocsPerOp())
			}
		}
	}
	file.SpeedupAt16Levels = perPath["table-linear-scan"][16] / perPath["table-threshold"][16]
	if file.SpeedupAt16Levels < file.AcceptanceSpeedupMin {
		t.Errorf("threshold engine speedup at 16 levels = %.2fx, want >= %.0fx (threshold %.1f ns, linear %.1f ns)",
			file.SpeedupAt16Levels, file.AcceptanceSpeedupMin,
			perPath["table-threshold"][16], perPath["table-linear-scan"][16])
	}

	const mbs = 100
	r := testing.Benchmark(func(b *testing.B) { benchPerMBRetarget(b, mbs) })
	file.Retarget = coreBenchRetarget{Macroblocks: mbs, PerMBRebuildNs: float64(r.T.Nanoseconds()) / float64(r.N)}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (speedup %.2fx at 16 levels; per-MB retarget %.0f ns)", out, file.SpeedupAt16Levels, file.Retarget.PerMBRebuildNs)
}
