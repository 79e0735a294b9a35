package main

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/experiments"
	"repro/internal/golden"
)

// tiny keeps command tests fast: short stream, small frames.
func tiny() experiments.Options {
	return experiments.Options{Frames: 60, Macroblocks: 120, Seed: 1}
}

func TestRunEachFigure(t *testing.T) {
	for _, fig := range []string{"5", "6", "7", "8", "9", "overhead", "policies", "grain", "buffers", "learning", "smoothness", "decoder"} {
		fig := fig
		t.Run("fig"+fig, func(t *testing.T) {
			if err := run(io.Discard, fig, tiny(), false, 10); err != nil {
				t.Fatalf("fig %s: %v", fig, err)
			}
		})
	}
}

func TestRunWithPlot(t *testing.T) {
	if err := run(io.Discard, "6", tiny(), true, 10); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run(io.Discard, "99", tiny(), false, 10); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestGoldenAll holds the output of `encodersim -fig all -frames 120
// -mbs 300` to testdata/golden/fig_all.txt. Regenerate with
//
//	go test ./cmd/encodersim -run TestGoldenAll -update
//
// only for an intended change of a decision or of the output.
func TestGoldenAll(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "all", experiments.Options{Frames: 120, Macroblocks: 300, Seed: 1}, false, 20); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "fig_all.txt", out.Bytes())
	golden.Complete(t, "fig_all.txt")
}
