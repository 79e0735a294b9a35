// Benchmark harness: one benchmark per table/figure of the paper plus
// the ablation benches DESIGN.md calls out. Figure benches run the full
// benchmark stream (582 frames, 9 sequences) at a reduced frame size
// with a proportionally reduced period — the load shapes (who wins,
// where skips appear, utilisation levels) are scale invariant; run
// cmd/encodersim for the full-scale series.
//
// Custom metrics reported:
//
//	skips/run, misses/run   — frame skips and deadline misses
//	util                    — mean time-budget utilisation (paper: ~1 controlled)
//	psnr-dB                 — mean PSNR over all frames
//	ctrl-frac               — controller cycles / total (paper: <1.5%)
package qos_test

import (
	"path/filepath"
	"runtime"
	"testing"

	qos "repro"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/experiments"
	"repro/internal/mpeg"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/video"
)

// BenchmarkRuntimeConcurrentStreams measures the multi-stream serving
// path: one shared System (the 8-macroblock MPEG body model, 72 actions
// per cycle) served to GOMAXPROCS concurrent streams through one
// Runtime. ns/op is per served cycle; with the precomputed tables
// shared and one session per stream, cycles/sec scales linearly
// with GOMAXPROCS (compare runs under -cpu 1,2,4,8).
func BenchmarkRuntimeConcurrentStreams(b *testing.B) {
	bld, err := qos.LoadModel(filepath.Join("examples", "models", "mpeg_body.qos"))
	if err != nil {
		b.Fatal(err)
	}
	sys, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	rt, err := qos.NewRuntime(sys)
	if err != nil {
		b.Fatal(err)
	}
	workload := func(a qos.ActionID, q qos.Level) qos.Cycles {
		return sys.Cav.At(q, a)
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "procs")
	// At least 8 concurrent sessions even on a single-core runner (the
	// -race acceptance shape); on larger machines parallelism is
	// 8 x GOMAXPROCS.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s := rt.Acquire()
		defer rt.Release(s)
		for pb.Next() {
			s.Reset()
			res, err := s.RunFunc(workload)
			if err != nil {
				b.Error(err)
				return
			}
			if res.Misses != 0 {
				b.Errorf("missed %d deadlines", res.Misses)
				return
			}
		}
	})
	b.StopTimer()
	if st := rt.Stats(); st.Misses != 0 {
		b.Fatalf("served with misses: %+v", st)
	}
}

// benchOptions is the reduced-scale configuration used by the figure
// benches (full 582-frame stream, 600-MB frames).
func benchOptions() experiments.Options {
	return experiments.Options{Frames: 582, Macroblocks: 600, Seed: 1}
}

// BenchmarkFig5TimingTables regenerates the figure 5 tables and verifies
// their invariants (monotonicity, Cav <= Cwc) each iteration.
func BenchmarkFig5TimingTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5()
		if len(rows) != 16 {
			b.Fatalf("rows = %d", len(rows))
		}
		for _, r := range rows {
			if r.Av > r.Wc {
				b.Fatalf("%s: av > wc", r.Label)
			}
		}
	}
}

func reportBudget(b *testing.B, bf *experiments.BudgetFigure) {
	b.ReportMetric(float64(bf.CtrlResult.Skips), "ctrl-skips/run")
	b.ReportMetric(float64(bf.ConstResult.Skips), "const-skips/run")
	b.ReportMetric(float64(bf.CtrlResult.Misses), "ctrl-misses/run")
	b.ReportMetric(experiments.UtilisationSummary(bf.CtrlResult).Mean, "ctrl-util")
	b.ReportMetric(experiments.UtilisationSummary(bf.ConstResult).Mean, "const-util")
	b.ReportMetric(bf.CtrlResult.MeanCtrlFrac, "ctrl-frac")
}

// BenchmarkFig6Budget regenerates figure 6: controlled K=1 vs constant
// q=3 K=1 time-budget utilisation.
func BenchmarkFig6Budget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bf, err := experiments.Fig6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportBudget(b, bf)
		}
	}
}

// BenchmarkFig7Budget regenerates figure 7: controlled K=1 vs constant
// q=4 K=2.
func BenchmarkFig7Budget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bf, err := experiments.Fig7(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportBudget(b, bf)
		}
	}
}

func reportPSNR(b *testing.B, pf *experiments.PSNRFigure) {
	b.ReportMetric(stats.Mean(pf.Controlled.Values), "ctrl-psnr-dB")
	b.ReportMetric(stats.Mean(pf.Constant.Values), "const-psnr-dB")
	b.ReportMetric(float64(pf.ConstResult.Skips), "const-skips/run")
}

// BenchmarkFig8PSNR regenerates figure 8: PSNR, controlled vs q=3 K=1.
func BenchmarkFig8PSNR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pf, err := experiments.Fig8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportPSNR(b, pf)
		}
	}
}

// BenchmarkFig9PSNR regenerates figure 9: PSNR, controlled vs q=4 K=2.
func BenchmarkFig9PSNR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pf, err := experiments.Fig9(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportPSNR(b, pf)
		}
	}
}

// BenchmarkControllerOverhead measures the section 3 runtime-overhead
// claim: the fraction of cycles spent in controller decisions.
func BenchmarkControllerOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Overhead(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rep.RuntimeFraction, "runtime-frac")
			b.ReportMetric(rep.CodeFraction, "code-frac")
			b.ReportMetric(rep.MemFraction, "mem-frac")
		}
	}
}

// BenchmarkDecision measures one controller decision on each evaluator
// path — the real-time cost a generated controller pays per action.
func BenchmarkDecision(b *testing.B) {
	fs, err := mpeg.BuildSystem(mpeg.SystemConfig{Macroblocks: 200, Budget: 200 * 178_000})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("iterative-tables", func(b *testing.B) {
		ctrl, err := core.NewController(fs.Sys, core.WithEvaluator(fs.Iter, fs.Iter.Order()))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ctrl.Done() {
				b.StopTimer()
				ctrl.Reset()
				b.StartTimer()
			}
			d, err := ctrl.Next()
			if err != nil {
				b.Fatal(err)
			}
			ctrl.Completed(fs.Sys.Cav.At(d.Level, d.Action))
		}
	})
	b.Run("generic-tables", func(b *testing.B) {
		ctrl, err := core.NewController(fs.Sys)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ctrl.Done() {
				b.StopTimer()
				ctrl.Reset()
				b.StartTimer()
			}
			d, err := ctrl.Next()
			if err != nil {
				b.Fatal(err)
			}
			ctrl.Completed(fs.Sys.Cav.At(d.Level, d.Action))
		}
	})
}

// BenchmarkEDFSchedule measures Best_Sched on the unrolled frame graph.
func BenchmarkEDFSchedule(b *testing.B) {
	g, err := mpeg.FrameGraph(600)
	if err != nil {
		b.Fatal(err)
	}
	n := g.Len()
	c := core.NewTimeFn(n, 100)
	d := core.NewTimeFn(n, core.Inf)
	d[n-1] = 1 << 40
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alpha := core.EDFSchedule(g, c, d)
		if len(alpha) != n {
			b.Fatal("bad schedule")
		}
	}
}

// BenchmarkTableConstruction compares building the generic tables for an
// unrolled frame against the constant-memory iterative tables — the
// ablation behind the <=1% memory claim.
func BenchmarkTableConstruction(b *testing.B) {
	fs, err := mpeg.BuildSystem(mpeg.SystemConfig{Macroblocks: 600, Budget: 600 * 178_000})
	if err != nil {
		b.Fatal(err)
	}
	order := fs.Iter.Order()
	b.Run("generic-unrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tb := core.NewTables(fs.Sys, order)
			if tb.Len() != len(order) {
				b.Fatal("bad tables")
			}
		}
	})
	b.Run("iterative-body", func(b *testing.B) {
		bodyOrder := core.EDFSchedule(fs.Body.Graph, fs.Body.Cwc.AtIndex(0), fs.Body.D.AtIndex(0))
		for i := 0; i < b.N; i++ {
			it, err := core.NewIterativeTables(fs.Body, bodyOrder, 600, fs.Iter.Budget())
			if err != nil {
				b.Fatal(err)
			}
			_ = it
		}
	})
}

// BenchmarkGrainAblation compares fine-grain control against per-frame
// coarse policies on identical streams (DESIGN.md ablation).
func BenchmarkGrainAblation(b *testing.B) {
	o := experiments.Options{Frames: 120, Macroblocks: 300, Seed: 1}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CompareGrain(o, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Name == "fine-grain (frame deadline)" {
					b.ReportMetric(r.MeanLevel, "fine-mean-q")
				}
				if r.Name == "per-frame pid-feedback" {
					b.ReportMetric(r.MeanLevel, "pid-mean-q")
					b.ReportMetric(float64(r.Misses), "pid-misses/run")
				}
			}
		}
	}
}

// BenchmarkPolicyComparison runs the full policy table (DESIGN.md
// ablation: constant, skip-over, PID, elastic vs fine grain).
func BenchmarkPolicyComparison(b *testing.B) {
	o := experiments.Options{Frames: 120, Macroblocks: 300, Seed: 1}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ComparePolicies(o, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Name == "elastic-wc" {
					b.ReportMetric(r.MeanLevel, "elastic-mean-q")
				}
				if r.Name == "fine-grain controlled" {
					b.ReportMetric(r.MeanLevel, "fine-mean-q")
				}
			}
		}
	}
}

// BenchmarkSmoothness measures the cost of the bounded-variation option
// (DESIGN.md ablation: smoothness on/off).
func BenchmarkSmoothness(b *testing.B) {
	cfg := video.DefaultConfig()
	cfg.Frames = 60
	cfg.Macroblocks = 300
	cfg.Period = core.Cycles(int64(320*core.Mcycle) * 300 / 1800)
	src, err := video.NewSource(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []struct {
		name string
		opts []mpeg.ControlledOption
	}{
		{"unbounded", nil},
		{"maxstep1", []mpeg.ControlledOption{mpeg.WithControllerOptions(core.WithMaxStep(1))}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := pipeline.Run(pipeline.Config{
					Source: src, K: 1, Controlled: true, Seed: 1,
					ControlledOpts: variant.opts,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					var lvl float64
					for _, r := range res.Records {
						lvl += r.MeanLevel
					}
					b.ReportMetric(lvl/float64(len(res.Records)), "mean-q")
					b.ReportMetric(float64(res.Misses), "misses/run")
				}
			}
		})
	}
}

// BenchmarkPipelineFrame measures end-to-end simulated encoding of one
// frame (controller + workload + bookkeeping) — the harness's own speed.
func BenchmarkPipelineFrame(b *testing.B) {
	cfg := video.DefaultConfig()
	cfg.Frames = 4
	cfg.Sequences = 1
	cfg.SequenceLoad = []float64{1.0}
	cfg.Macroblocks = 600
	cfg.Period = core.Cycles(int64(320*core.Mcycle) * 600 / 1800)
	src, err := video.NewSource(cfg)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := mpeg.NewControlled(600, src.Period(), 1)
	if err != nil {
		b.Fatal(err)
	}
	f := src.Frame(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.EncodeFrame(&f, src.Period()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecoderStream measures the second case study: the
// quality-scalable decoder under fine-grain control vs constant level.
func BenchmarkDecoderStream(b *testing.B) {
	stream := decoder.SyntheticStream(200, 12, 7)
	deadline := decoder.FrameWc(0) + 900_000
	b.Run("controlled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := decoder.DecodeStream(stream, deadline, 1)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.MeanLevel, "mean-q")
				b.ReportMetric(float64(res.Misses), "misses/run")
			}
		}
	})
	b.Run("constant-q3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := decoder.DecodeStreamConstant(stream, deadline, 3, 1)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.MeanLevel, "mean-q")
				b.ReportMetric(float64(res.Misses), "misses/run")
			}
		}
	})
}

// BenchmarkSmoothnessAnalysis measures the static smoothness bound
// computation (paper conclusion: conditions guaranteeing smoothness).
func BenchmarkSmoothnessAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Smoothness(60, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.MaxDrop), "max-drop")
		}
	}
}

// BenchmarkLearningAblation measures the online-learning variant.
func BenchmarkLearningAblation(b *testing.B) {
	o := experiments.Options{Frames: 120, Macroblocks: 300, Seed: 1}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CompareLearning(o, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].MeanLevel, "static-mean-q")
			b.ReportMetric(rows[2].MeanLevel, "learned-mean-q")
		}
	}
}

// BenchmarkWorkloadDraw measures the synthetic workload model itself.
func BenchmarkWorkloadDraw(b *testing.B) {
	cfg := video.DefaultConfig()
	cfg.Frames = 2
	cfg.Sequences = 1
	cfg.SequenceLoad = []float64{1.0}
	cfg.Macroblocks = 600
	src, err := video.NewSource(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f := src.Frame(1)
	w := mpeg.NewWorkload(&f, platform.NewRNG(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := core.ActionID(i % (600 * mpeg.NumActions))
		if c := w.Cost(a, 3); c <= 0 {
			b.Fatal("bad cost")
		}
	}
}
