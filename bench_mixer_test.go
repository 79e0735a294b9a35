// BenchmarkMixerSharedBudget and its JSON emitter: the multi-stream
// shared-budget serving path, the perf trajectory's first tracked data
// point. The emitter (TestEmitMixerBenchJSON) writes BENCH_mixer.json
// when BENCH_MIXER_JSON names the output path; CI runs both on every
// push so the numbers stay comparable over time:
//
//	BENCH_MIXER_JSON=BENCH_mixer.json \
//	  go test -run TestEmitMixerBenchJSON -bench MixerSharedBudget -benchtime 1x .
package qos_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	qos "repro"
)

// mixerBench is one shared-budget serving fixture: a Runtime over the
// MPEG body model (Hard mode), a SharedBudget sized between the
// admission floor and full quality (25% of the way up), and one
// admitted grant per stream.
type mixerBench struct {
	sys    *qos.System
	rt     *qos.Runtime
	budget *qos.SharedBudget
	grants []*qos.StreamGrant
	spec   qos.StreamSpec
}

func newMixerBench(tb testing.TB, streams int) *mixerBench {
	tb.Helper()
	bld, err := qos.LoadModel(filepath.Join("examples", "models", "mpeg_body.qos"))
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := bld.Build()
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := qos.NewRuntime(sys) // Hard mode: misses are a bug
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := qos.StreamSpecFromProgram(rt.Program())
	if err != nil {
		tb.Fatal(err)
	}
	perStream := spec.MinNeed + (spec.FullNeed-spec.MinNeed)/4
	budget, err := qos.NewSharedBudget(perStream*qos.Cycles(streams), qos.FairShare)
	if err != nil {
		tb.Fatal(err)
	}
	// Leasing armed: the measured serving path includes the per-cycle
	// lease renewal (a field write under the lock CycleDelay already
	// takes — it must not add locks or allocations).
	budget.SetLease(8)
	m := &mixerBench{sys: sys, rt: rt, budget: budget, spec: spec}
	m.grants = make([]*qos.StreamGrant, streams)
	for i := range m.grants {
		if m.grants[i], err = budget.Admit(spec); err != nil {
			tb.Fatalf("admit stream %d: %v", i, err)
		}
	}
	return m
}

func (m *mixerBench) release() {
	for _, g := range m.grants {
		g.Release()
	}
}

// serve runs every stream concurrently for `periods` cycles each over
// budgeted sessions of one runtime and returns the aggregate mean
// level. The workload respects the execution contract (C ≤ Cwc_θ), so
// Hard mode must finish with zero deadline misses.
func (m *mixerBench) serve(tb testing.TB, periods int) float64 {
	var wg sync.WaitGroup
	levelSums := make([]float64, len(m.grants))
	for i := range m.grants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := qos.NewRNG(uint64(i + 1))
			s := m.rt.AcquireBudgeted(m.grants[i])
			defer m.rt.Release(s)
			sys := m.sys
			// One workload closure per stream, hoisted out of the period
			// loop so the loop itself allocates nothing.
			work := func(a qos.ActionID, q qos.Level) qos.Cycles {
				av := sys.Cav.At(q, a)
				wc := sys.Cwc.At(q, a)
				if wc.IsInf() {
					wc = av * 2
				}
				return av + qos.Cycles(rng.Float64()*float64(wc-av))
			}
			for p := 0; p < periods; p++ {
				s.Reset()
				res, err := s.RunFunc(work)
				if err != nil {
					tb.Error(err)
					return
				}
				levelSums[i] += res.MeanLevel()
			}
		}(i)
	}
	wg.Wait()
	var sum float64
	for _, s := range levelSums {
		sum += s
	}
	return sum / float64(len(m.grants)*periods)
}

// BenchmarkMixerSharedBudget serves 8/16/32 budgeted streams under one
// shared budget in Hard mode. ns/op is one period: every stream runs
// one full 72-action cycle. Zero deadline misses is part of the
// contract, not just a metric.
func BenchmarkMixerSharedBudget(b *testing.B) {
	for _, streams := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("streams-%d", streams), func(b *testing.B) {
			m := newMixerBench(b, streams)
			defer m.release()
			b.ReportAllocs()
			b.ResetTimer()
			meanLevel := m.serve(b, b.N)
			b.StopTimer()
			st := m.rt.Stats()
			if st.Misses != 0 {
				b.Fatalf("hard mode served with %d deadline misses: %+v", st.Misses, st)
			}
			b.ReportMetric(meanLevel, "mean-q")
			b.ReportMetric(float64(streams), "streams")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(streams)), "ns/stream-cycle")
		})
	}
}

// mixerBenchPoint is one BENCH_mixer.json row.
type mixerBenchPoint struct {
	Streams         int     `json:"streams"`
	Periods         int     `json:"periods"`
	NsPerStreamCyc  float64 `json:"ns_per_stream_cycle"`
	StreamCycPerSec float64 `json:"stream_cycles_per_sec"`
	MeanLevel       float64 `json:"mean_level"`
	Misses          int64   `json:"misses"`
	Fallbacks       int64   `json:"fallbacks"`
	ShareFraction   float64 `json:"share_fraction_of_nominal"`
	// AllocsPerStreamCyc tracks allocation regressions on the serving
	// path: heap allocations per served stream-cycle (72 decisions plus
	// cycle bookkeeping; the decision hot path itself contributes 0).
	AllocsPerStreamCyc float64 `json:"allocs_per_stream_cycle"`
}

// mixerBenchFile is the BENCH_mixer.json schema.
type mixerBenchFile struct {
	Benchmark  string            `json:"benchmark"`
	Model      string            `json:"model"`
	Mode       string            `json:"mode"`
	Policy     string            `json:"policy"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Points     []mixerBenchPoint `json:"points"`
}

// maxAllocsPerStreamCyc is the serving-path allocation ceiling: the
// steady state allocates nothing per decision, so anything above cycle
// bookkeeping noise is a regression.
const maxAllocsPerStreamCyc = 0.1

// TestEmitMixerBenchJSON measures the shared-budget serving path at
// 8/16/32 streams and writes the results to the path named by
// BENCH_MIXER_JSON (skipped when unset) — the checked-in
// BENCH_mixer.json that tracks the perf trajectory across PRs. The
// allocation ceiling is enforced on every run; setting
// BENCH_MIXER_BASELINE to a previous BENCH_mixer.json additionally
// fails the run on a >10% ns/stream-cycle regression at any fleet
// size (a local gate — wall-clock comparisons across CI machines are
// noise).
func TestEmitMixerBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_MIXER_JSON")
	if out == "" {
		t.Skip("BENCH_MIXER_JSON not set")
	}
	const periods = 400
	file := mixerBenchFile{
		Benchmark:  "MixerSharedBudget",
		Model:      "examples/models/mpeg_body.qos",
		Mode:       "hard",
		Policy:     qos.FairShare.String(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, streams := range []int{8, 16, 32} {
		m := newMixerBench(t, streams)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		meanLevel := m.serve(t, periods)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		st := m.rt.Stats()
		if st.Misses != 0 {
			t.Fatalf("streams=%d: hard mode served with %d misses", streams, st.Misses)
		}
		cycles := int64(streams) * int64(periods)
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(cycles)
		if allocs > maxAllocsPerStreamCyc {
			t.Errorf("streams=%d: %.3f allocs/stream-cycle exceeds the %.1f ceiling",
				streams, allocs, maxAllocsPerStreamCyc)
		}
		file.Points = append(file.Points, mixerBenchPoint{
			Streams:            streams,
			Periods:            periods,
			NsPerStreamCyc:     float64(elapsed.Nanoseconds()) / float64(cycles),
			StreamCycPerSec:    float64(cycles) / elapsed.Seconds(),
			MeanLevel:          meanLevel,
			Misses:             st.Misses,
			Fallbacks:          st.Fallbacks,
			ShareFraction:      float64(m.grants[0].Share()) / float64(m.spec.Nominal),
			AllocsPerStreamCyc: allocs,
		})
		m.release()
	}
	checkMixerBaseline(t, file)
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// checkMixerBaseline compares the fresh measurements against the
// baseline named by BENCH_MIXER_BASELINE (no-op when unset): any fleet
// size slower by more than 10% ns/stream-cycle fails.
func checkMixerBaseline(t *testing.T, fresh mixerBenchFile) {
	path := os.Getenv("BENCH_MIXER_BASELINE")
	if path == "" {
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	var base mixerBenchFile
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("baseline %s: %v", path, err)
	}
	baseNs := make(map[int]float64, len(base.Points))
	for _, p := range base.Points {
		baseNs[p.Streams] = p.NsPerStreamCyc
	}
	for _, p := range fresh.Points {
		b, ok := baseNs[p.Streams]
		if !ok || b <= 0 {
			continue
		}
		if ratio := p.NsPerStreamCyc / b; ratio > 1.10 {
			t.Errorf("streams=%d: %.0f ns/stream-cycle is %.1f%% over baseline %.0f (>10%% regression)",
				p.Streams, p.NsPerStreamCyc, 100*(ratio-1), b)
		} else {
			t.Logf("streams=%d: %.0f ns/stream-cycle vs baseline %.0f (%.1f%%)",
				p.Streams, p.NsPerStreamCyc, b, 100*(ratio-1))
		}
	}
}
