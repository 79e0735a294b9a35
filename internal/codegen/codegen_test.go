package codegen

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/session"
)

const tinyModel = `
# two-action chain, two levels
levels 0 1
action a
action b
edge a b
time a * 10 20
time b 0 10 20
time b 1 30 50
deadline b * 100
`

// build reads src as the tool does, through session.ParseModel, and
// builds its system.
func build(t *testing.T, src string) *core.System {
	t.Helper()
	b, err := session.ParseModel(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseModel: %v", err)
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sys
}

func TestParseTiny(t *testing.T) {
	sys := build(t, tinyModel)
	a, _ := sys.Graph.Lookup("a")
	if sys.Graph.Len() != 2 || len(sys.Graph.Succs(a)) != 1 {
		t.Fatalf("graph:\n%s", sys.Graph)
	}
	if len(sys.Levels) != 2 {
		t.Fatalf("levels: %v", sys.Levels)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"no levels", "action a\n"},
		{"no actions", "levels 0 1\n"},
		{"bad directive", "levels 0 1\naction a\nfrobnicate x\n"},
		{"bad level range", "levels 3 1\naction a\n"},
		{"bad time", "levels 0 1\naction a\ntime a * ten 20\n"},
		{"short edge", "levels 0 1\naction a\nedge a\n"},
		{"bad deadline", "levels 0 1\naction a\ndeadline a * -5\n"},
		{"bad iterate", "levels 0 1\naction a\niterate 0\n"},
		{"bad level token", "levels 0 1\naction a\ntime a x 1 2\n"},
		{"negative time level", "levels 0 2\naction a\ntime a -1 5 9\n"},
		{"negative deadline level", "levels 0 2\naction a\ndeadline a -1 9\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := session.ParseModel(strings.NewReader(c.src)); err == nil {
				t.Fatalf("accepted: %s", c.src)
			}
		})
	}
}

// TestParseBoundsModelSize holds session.ParseModel to its MaxLevels
// and MaxActions: a level range or an iterated action count past them
// is an error, not a makeslice panic or a build that does not finish,
// and the largest model inside both bounds still builds a controller.
func TestParseBoundsModelSize(t *testing.T) {
	const MaxLevels, MaxActions = session.MaxLevels, session.MaxActions
	for _, c := range []struct {
		name, src string
		ok        bool
	}{
		{"max int level range", "levels 0 9223372036854775807\naction a\n", false},
		{"full int level range", "levels -9223372036854775808 9223372036854775807\naction a\n", false},
		{"levels past the bound", fmt.Sprintf("levels 1 %d\naction a\n", MaxLevels+1), false},
		{"levels at the bound", fmt.Sprintf("levels 1 %d\naction a\n", MaxLevels), true},
		{"levels at the top of int", "levels 9223372036854775800 9223372036854775807\naction a\n", true},
		{"huge iterate", "levels 0 1\naction a\niterate 1000000000\n", false},
		{"max int iterate", "levels 0 1\naction a\niterate 9223372036854775807\n", false},
		{"iterate past the bound", fmt.Sprintf("levels 0 1\naction a\naction b\niterate %d\n", MaxActions/2+1), false},
		{"iterate at the bound", fmt.Sprintf("levels 0 1\naction a\naction b\niterate %d\n", MaxActions/2), true},
		{"iterate before the actions", fmt.Sprintf("iterate %d\nlevels 0 1\naction a\naction b\n", MaxActions), false},
		{"largest model", fmt.Sprintf("levels 0 %d\naction a\ntime a * 1 2\niterate %d\n", MaxLevels-1, MaxActions), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			b, err := session.ParseModel(strings.NewReader(c.src))
			if !c.ok {
				if err == nil {
					t.Fatalf("accepted: %q", c.src)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			sys, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			if len(sys.Levels) > MaxLevels || sys.Graph.Len() > MaxActions {
				t.Fatalf("%d levels, %d actions accepted", len(sys.Levels), sys.Graph.Len())
			}
			if _, err := core.NewController(sys); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExampleModelsParse parses and builds every model under
// examples/models.
func TestExampleModelsParse(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "models", "*.qos"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example models: %v", err)
	}
	for _, path := range paths {
		b, err := session.LoadModel(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, err := b.Build(); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
}

func TestParseInfDeadline(t *testing.T) {
	sys := build(t, "levels 0 0\naction a\ndeadline a * inf\ntime a * 1 2\n")
	if !sys.D.At(0, 0).IsInf() {
		t.Fatal("inf deadline not parsed")
	}
}

func TestBuildSystemFromTiny(t *testing.T) {
	sys := build(t, tinyModel)
	if sys.Graph.Len() != 2 {
		t.Fatalf("graph size %d", sys.Graph.Len())
	}
	b, _ := sys.Graph.Lookup("b")
	if sys.Cav.At(1, b) != 30 || sys.Cwc.At(1, b) != 50 {
		t.Fatal("per-level time not applied")
	}
	if sys.D.At(0, b) != 100 {
		t.Fatal("deadline not applied")
	}
	if !sys.FeasibleAtQmin() {
		t.Fatal("tiny model should be feasible")
	}
}

func TestGenerateArtifacts(t *testing.T) {
	ar := Generate(build(t, tinyModel))
	if len(ar.Alpha) != 2 {
		t.Fatalf("schedule: %v", ar.Alpha)
	}
	var sched, tables, cfile strings.Builder
	if err := ar.WriteSchedule(&sched); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sched.String(), "a") || !strings.Contains(sched.String(), "deadline") {
		t.Errorf("schedule listing:\n%s", sched.String())
	}
	if err := ar.WriteTables(&tables); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tables.String(), "slackAv") {
		t.Errorf("tables listing:\n%s", tables.String())
	}
	if err := ar.WriteC(&cfile); err != nil {
		t.Fatal(err)
	}
	c := cfile.String()
	for _, want := range []string{
		"QOS_N_ACTIONS 2", "QOS_N_LEVELS  2",
		"qos_schedule", "qos_slack_av", "qos_slack_wc", "qos_run_cycle",
	} {
		if !strings.Contains(c, want) {
			t.Errorf("generated C missing %q", want)
		}
	}
	inst := ar.Instrumentation()
	if inst.TableEntries != 2*2*2 || inst.TableBytes != inst.TableEntries*8 {
		t.Errorf("instrumentation: %+v", inst)
	}
}

// TestGenerateAcceptsQualityDependentDeadlines: a model whose EDF order
// changes with quality gets the schedule and tables its controller runs
// on, core.NewProgram's α and core.NewTables along it.
func TestGenerateAcceptsQualityDependentDeadlines(t *testing.T) {
	b, err := session.LoadModel(filepath.Join("..", "..", "examples", "models", "crossing_deadlines.qos"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	top := len(sys.Levels) - 1
	if slices.Equal(core.EDFSchedule(sys.Graph, sys.Cwc.AtIndex(0), sys.D.AtIndex(0)),
		core.EDFSchedule(sys.Graph, sys.Cwc.AtIndex(top), sys.D.AtIndex(top))) {
		t.Fatal("the model's EDF order does not depend on quality")
	}
	ar := Generate(sys)
	p, err := core.NewProgram(sys)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ar.Alpha, p.Schedule()) {
		t.Fatalf("schedule %v, program's %v", ar.Alpha, p.Schedule())
	}
	if want := core.NewTables(sys, p.Schedule()); !reflect.DeepEqual(ar.Tables, want) || !reflect.DeepEqual(ar.Tables, p.Evaluator()) {
		t.Fatal("emitted tables differ from core.NewTables along the program's schedule")
	}
}

func TestIterateAppliesDeadlineToLastIteration(t *testing.T) {
	src := `
levels 0 0
action a
time a * 10 20
deadline a * 1000
iterate 3
`
	sys := build(t, src)
	if sys.Graph.Len() != 3 {
		t.Fatalf("unrolled size %d", sys.Graph.Len())
	}
	d := sys.D.AtIndex(0)
	if !d[0].IsInf() || !d[1].IsInf() || d[2] != 1000 {
		t.Fatalf("deadlines = %v", d)
	}
}

func TestMPEGBodyModelFile(t *testing.T) {
	b, err := session.LoadModel(filepath.Join("..", "..", "examples", "models", "mpeg_body.qos"))
	if err != nil {
		t.Fatalf("model file: %v", err)
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sys.Graph.Len() != 9*8 || b.Iterations() != 8 {
		t.Fatalf("model shape: %d actions, iterate %d", sys.Graph.Len(), b.Iterations())
	}
	ar := Generate(sys)
	if len(ar.Alpha) != 72 {
		t.Fatalf("schedule length %d, want 72", len(ar.Alpha))
	}
	if !ar.Sys.FeasibleAtQmin() {
		t.Fatal("model infeasible at qmin")
	}
	// And the generated controller runs safely.
	ctrl, err := core.NewController(ar.Sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.RunCycle(func(a core.ActionID, q core.Level) core.Cycles {
		return ar.Sys.Cav.At(q, a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 {
		t.Fatalf("misses = %d", res.Misses)
	}
	if res.MeanLevel() < 1 {
		t.Errorf("mean level %v suspiciously low for a 2.5 Mcycle budget", res.MeanLevel())
	}
}

func TestCIdent(t *testing.T) {
	cases := map[string]string{
		"Grab_Macro_Block": "Grab_Macro_Block",
		"a#1":              "a_1",
		"9lives":           "a_9lives",
		"":                 "a_",
	}
	for in, want := range cases {
		if got := cIdent(in); got != want {
			t.Errorf("cIdent(%q) = %q, want %q", in, got, want)
		}
	}
}
