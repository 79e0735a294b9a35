package pipeline

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/mpeg"
	"repro/internal/video"
)

var update = flag.Bool("update", false, "rewrite the pipeline goldens under testdata/golden")

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
	path := filepath.Join("testdata", "golden", "permb_k2.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(path); err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	} else if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("per-frame records differ from %s:\n%s", path, firstDiff(want, buf.Bytes()))
	}
	if 2*moved <= encoded {
		t.Errorf("budget moved on %d of %d encoded frames; the golden must retarget on most", moved, encoded)
	}
}

// firstDiff names the first line at which got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	return "lengths differ"
}
