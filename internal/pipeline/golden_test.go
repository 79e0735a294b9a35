package pipeline

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/mpeg"
	"repro/internal/video"
)

// TestGoldenPerMBRetarget holds the per-frame records of a K=2
// per-macroblock-deadline run to testdata/golden. With K=2 each frame's
// budget (arrival + 2P − start) moves with the previous frame's encode
// time, and proportional per-macroblock deadlines scale non-uniformly
// with it, so nearly every frame re-targets the controller through a
// table rebuild (Controller.Retarget). Regenerate with
//
//	go test ./internal/pipeline -run TestGoldenPerMBRetarget -update
//
// only for an intended behaviour change.
func TestGoldenPerMBRetarget(t *testing.T) {
	cfg := video.DefaultConfig()
	cfg.Frames = 200
	cfg.Macroblocks = 300
	// The period scales with the frame size, as in package experiments,
	// so that encoding fills the budget and the next frame starts late.
	cfg.Period = core.Cycles(int64(320*core.Mcycle) * int64(cfg.Macroblocks) / 1800)
	src, err := video.NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Source: src, K: 2, Controlled: true, Seed: 7,
		ControlledOpts: []mpeg.ControlledOption{mpeg.WithPerMacroblockDeadlines()}})
	if err != nil {
		t.Fatal(err)
	}
	// The run must exercise the retarget path on most frames: a frame
	// whose budget equals the previous encoded frame's skips it.
	encoded, moved := 0, 0
	var buf bytes.Buffer
	buf.WriteString("# frame skipped budget encode mean_level misses fallbacks\n")
	for i, r := range res.Records {
		if !r.Skipped {
			if encoded > 0 && r.Budget != res.Records[i-1].Budget {
				moved++
			}
			encoded++
		}
		fmt.Fprintf(&buf, "%d %t %d %d %s %d %d\n", r.Index, r.Skipped, int64(r.Budget), int64(r.Encode),
			strconv.FormatFloat(r.MeanLevel, 'g', -1, 64), r.Misses, r.Fallbacks)
	}
	golden.Check(t, "permb_k2.txt", buf.Bytes())
	golden.Complete(t, "permb_k2.txt")
	if 2*moved <= encoded {
		t.Errorf("budget moved on %d of %d encoded frames; the golden must retarget on most", moved, encoded)
	}
}
