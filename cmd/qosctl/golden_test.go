package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// goldenRuns are the fixed-seed qosctl runs whose output is held to
// testdata/golden/<name>.txt.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"simulate_s8", []string{"simulate", "-streams", "8", "-cycles", "30", "-seed", "11"}},
	{"chaos_s1", []string{"chaos", "-seed", "11", "-cycles", "40"}},
	{"chaos_s8", []string{"chaos", "-seed", "11", "-cycles", "40", "-streams", "8"}},
}

// TestGoldenOutputs runs each of goldenRuns in process through realMain
// on the mpeg_body model and holds its exit code and output to its
// golden. The simulate golden ends with the runtime's served totals
// (Runtime.Stats); the chaos scorecards read its quarantine count. A
// golden without a run, or a run without a golden, fails the test.
// Regenerate with
//
//	go test ./cmd/qosctl -run TestGoldenOutputs -update
//
// only for an intended change of a decision or of the output.
func TestGoldenOutputs(t *testing.T) {
	model := filepath.Join("..", "..", "examples", "models", "mpeg_body.qos")
	var names []string
	for _, run := range goldenRuns {
		names = append(names, run.name+".txt")
		t.Run(run.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := realMain(append([]string{"-model", model}, run.args...), &stdout, &stderr)
			if code != 0 || stderr.Len() != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.Bytes())
			}
			golden.Check(t, run.name+".txt", stdout.Bytes())
		})
	}
	golden.Complete(t, names...)
}
