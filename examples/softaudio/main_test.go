package main

import (
	"bytes"
	"testing"

	"repro/internal/golden"
)

// TestGoldenOutput holds the example's output to
// testdata/golden/output.txt. Regenerate with
//
//	go test ./examples/softaudio -run TestGoldenOutput -update
//
// only for an intended change of a decision or of the output.
func TestGoldenOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "output.txt", out.Bytes())
	golden.Complete(t, "output.txt")
}
