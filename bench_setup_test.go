package qos_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mixer"
	"repro/internal/mpeg"
	"repro/internal/qosd"
	"repro/internal/session"
)

// setupStreams is the fleet size of the setup rows: 16 budgeted
// sessions, as qosbench's embedded workload admits.
const setupStreams = 16

var setupModel = filepath.Join("examples", "models", "mpeg_body.qos")

// setupBudget gives each of the fleet's streams its floor plus a
// quarter of the way to full quality, the embedded workload's budget.
func setupBudget(spec mixer.StreamSpec) core.Cycles {
	per := int64(spec.MinNeed) + (int64(spec.FullNeed)-int64(spec.MinNeed))/4
	return core.Cycles(per * setupStreams)
}

// admitFleet makes a Fair leased budget for the fleet and admits and
// binds every stream of it. The fleet is dropped, not released: each
// call starts from a fresh runtime.
func admitFleet(b *testing.B, rt *session.Runtime, spec mixer.StreamSpec) {
	budget, err := mixer.New(setupBudget(spec), mixer.Fair)
	if err != nil {
		b.Fatal(err)
	}
	budget.SetLease(8)
	for i := 0; i < setupStreams; i++ {
		g, err := budget.Admit(spec)
		if err != nil {
			b.Fatalf("admit stream %d: %v", i, err)
		}
		rt.AcquireBudgeted(g)
	}
}

// churnStreams is the daemon row's fleet: the 32 streams qosbench's
// qosd-churn workload admits at setup.
const churnStreams = 32

// churnConfig is qosd-churn's daemon configuration: a budget that holds
// the fleet's MinNeed floors plus room for six more, a two-epoch lease
// on a 100 ms reaper tick and a 20 ms admit timeout.
func churnConfig(spec mixer.StreamSpec) qosd.Config {
	return qosd.Config{
		Models:        []qosd.ModelFile{{Name: "mpeg_body", Path: setupModel}},
		Budget:        spec.MinNeed*(churnStreams+6) + spec.MinNeed*2/3,
		LeaseEpochs:   2,
		EpochInterval: 100 * time.Millisecond,
		AdmitTimeout:  20 * time.Millisecond,
	}
}

// BenchmarkSetup times building the serving state from a model. The
// fleet row is the whole of qosbench's embedded setup: LoadModel, Build,
// NewRuntime, SpecFromProgram, a Fair leased budget and 16 admitted,
// bound sessions. The parse, build, tables and admit rows split it, each
// starting from the previous phase's output. The daemon row is
// qosbench's qosd-churn setup without its client's decoding: qosd.New on
// qosd-churn's configuration, StartReaper and a 32-stream admit through
// Handler(); the daemon is drained outside the timer. The
// mpeg-frame-600 row is mpeg.BuildSystem for a 600-macroblock frame.
func BenchmarkSetup(b *testing.B) {
	b.Run("fleet", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bld, err := session.LoadModel(setupModel)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			rt, err := session.NewRuntime(sys)
			if err != nil {
				b.Fatal(err)
			}
			spec, err := mixer.SpecFromProgram(rt.Program())
			if err != nil {
				b.Fatal(err)
			}
			admitFleet(b, rt, spec)
		}
	})

	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := session.LoadModel(setupModel); err != nil {
				b.Fatal(err)
			}
		}
	})
	bld, err := session.LoadModel(setupModel)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bld.Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
	sys, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tables", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rt, err := session.NewRuntime(sys)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mixer.SpecFromProgram(rt.Program()); err != nil {
				b.Fatal(err)
			}
		}
	})
	rt, err := session.NewRuntime(sys)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := mixer.SpecFromProgram(rt.Program())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("admit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh := session.NewRuntimeFromProgram(rt.Program())
			b.StartTimer()
			admitFleet(b, fresh, spec)
		}
	})

	b.Run("daemon", func(b *testing.B) {
		cfg := churnConfig(spec)
		body := []byte(fmt.Sprintf(`{"streams":%d}`, churnStreams))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := qosd.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			d.StartReaper()
			rec := httptest.NewRecorder()
			d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admit", bytes.NewReader(body)))
			if ids := bytes.Count(rec.Body.Bytes(), []byte(`"id":`)); rec.Code != http.StatusOK || ids != churnStreams {
				b.Fatalf("admit: HTTP %d, %d ids: %s", rec.Code, ids, rec.Body)
			}
			b.StopTimer()
			d.Drain()
			b.StartTimer()
		}
	})

	b.Run("mpeg-frame-600", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fs, err := mpeg.BuildSystem(mpeg.SystemConfig{Macroblocks: 600, Budget: 600 * 178_000})
			if err != nil {
				b.Fatal(err)
			}
			if fs.Sys.Graph.Len() != 600*mpeg.NumActions {
				b.Fatal("bad frame system")
			}
		}
	})
}
