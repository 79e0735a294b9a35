package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mpeg"
	"repro/internal/session"
)

const model = `
levels 0 1
action a
action b
edge a b
time a * 10 20
time b * 10 20
deadline b * 100
`

func modelFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.qos")
	if err := os.WriteFile(path, []byte(model), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWritesArtifacts(t *testing.T) {
	path := modelFile(t)
	out := filepath.Join(t.TempDir(), "gen")
	if err := run(path, out, false); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"schedule.txt", "tables.txt", "controlled.c"} {
		data, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	c, _ := os.ReadFile(filepath.Join(out, "controlled.c"))
	if !strings.Contains(string(c), "qos_run_cycle") {
		t.Error("controlled.c missing the controller loop")
	}
}

func TestRunStdout(t *testing.T) {
	if err := run(modelFile(t), "", true); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingModel(t *testing.T) {
	if err := run("/nope.qos", t.TempDir(), false); err == nil {
		t.Fatal("missing model accepted")
	}
}

func TestEmitBodyModelMatchesFixture(t *testing.T) {
	dir := t.TempDir()
	if err := emitBodyModel(dir, false, 8, 2_500_000); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "mpeg_body.qos"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"levels 0 7", "iterate 8", "deadline Reconstruct * 2500000"} {
		if !strings.Contains(string(got), want) {
			t.Errorf("emitted model missing %q", want)
		}
	}
	fixture, err := os.ReadFile(filepath.Join("..", "..", "examples", "models", "mpeg_body.qos"))
	if err != nil {
		t.Fatalf("fixture unavailable: %v", err)
	}
	if string(got) != string(fixture) {
		t.Error("examples/models/mpeg_body.qos out of date: regenerate with tablegen -emit-mpeg-body -o examples/models/")
	}
}

func TestEmitBodyModelRejectsBadArgs(t *testing.T) {
	if err := emitBodyModel(t.TempDir(), false, 0, 1); err == nil {
		t.Error("iterate 0 accepted")
	}
	if err := emitBodyModel(t.TempDir(), false, 8, 0); err == nil {
		t.Error("budget 0 accepted")
	}
}

// TestEmitBodyModelBoundsIterate holds -emit-mpeg-body to the model
// sizes session.ParseModel accepts: the largest iterate count writes a
// model that parses, one more is rejected and leaves the file in place.
func TestEmitBodyModelBoundsIterate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mpeg_body.qos")
	if err := emitBodyModel(dir, false, mpeg.MaxIterate, 2_500_000); err != nil {
		t.Fatalf("iterate %d: %v", mpeg.MaxIterate, err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := session.ParseModel(bytes.NewReader(written))
	if err != nil {
		t.Fatalf("iterate %d: the written model does not parse: %v", mpeg.MaxIterate, err)
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatalf("iterate %d: the written model does not build: %v", mpeg.MaxIterate, err)
	}
	if got := sys.Graph.Len(); got > session.MaxActions {
		t.Fatalf("iterate %d: %d actions, above session.MaxActions %d", mpeg.MaxIterate, got, session.MaxActions)
	}
	if err := emitBodyModel(dir, false, mpeg.MaxIterate+1, 2_500_000); err == nil {
		t.Fatalf("iterate %d accepted", mpeg.MaxIterate+1)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, written) {
		t.Error("a rejected iterate count rewrote mpeg_body.qos")
	}
}
