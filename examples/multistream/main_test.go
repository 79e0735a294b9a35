package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// TestGoldenOutput holds the example's output to
// testdata/golden/output.txt. Regenerate with
//
//	go test ./examples/multistream -run TestGoldenOutput -update
//
// only for an intended change of a decision or of the output.
func TestGoldenOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, filepath.Join("..", "models", "mpeg_body.qos"), 16, 200); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "output.txt", out.Bytes())
	golden.Complete(t, "output.txt")
}
