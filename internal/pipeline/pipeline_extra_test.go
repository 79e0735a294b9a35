package pipeline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/video"
)

func tinySource(t *testing.T, frames int) *video.Source {
	t.Helper()
	cfg := video.DefaultConfig()
	cfg.Frames = frames
	cfg.Sequences = 1
	cfg.Macroblocks = 30
	cfg.SequenceLoad = []float64{1.0}
	src, err := video.NewSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestSingleFrameStream(t *testing.T) {
	src := tinySource(t, 1)
	res, err := Run(Config{Source: src, K: 1, Controlled: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || res.Records[0].Skipped {
		t.Fatalf("records: %+v", res.Records)
	}
	if res.Skips != 0 || res.Misses != 0 {
		t.Fatalf("skips=%d misses=%d", res.Skips, res.Misses)
	}
}

func TestHugeBufferNeverSkips(t *testing.T) {
	src := tinySource(t, 20)
	res, err := Run(Config{Source: src, K: 50, ConstQ: 7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A buffer larger than the stream cannot overflow.
	if res.Skips != 0 {
		t.Fatalf("skips = %d with K=50", res.Skips)
	}
	// Every frame eventually encoded.
	for _, r := range res.Records {
		if r.Skipped || r.Encode == 0 {
			t.Fatalf("frame %d not encoded", r.Index)
		}
	}
}

func TestRecordsAccounting(t *testing.T) {
	src := tinySource(t, 10)
	res, err := Run(Config{Source: src, K: 1, Controlled: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := src.Period()
	for i, r := range res.Records {
		if r.Index != i || r.Arrival != core.Cycles(i)*p {
			t.Fatalf("record %d identity wrong: %+v", i, r)
		}
		if r.Finish != r.Start+r.Encode {
			t.Fatalf("record %d: finish != start+encode", i)
		}
		if r.BitsAlloc <= 0 {
			t.Fatalf("record %d: no bit allocation", i)
		}
		if r.PSNR < 20 || r.PSNR > 50 {
			t.Fatalf("record %d: PSNR %v out of band", i, r.PSNR)
		}
	}
	if got := len(res.EncodedRecords()); got != 10 {
		t.Fatalf("EncodedRecords = %d", got)
	}
}

func TestSkippedFrameLatencyZero(t *testing.T) {
	r := FrameRecord{Skipped: true, Arrival: 100, Finish: 900}
	if r.Latency() != 0 {
		t.Fatal("skipped frames have no latency")
	}
}

func TestEncoderIdlesBetweenSparseFrames(t *testing.T) {
	// With a light load the encoder finishes early and must wait for
	// the next arrival rather than encode future frames.
	src := tinySource(t, 5)
	res, err := Run(Config{Source: src, K: 3, ConstQ: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		if rec.Start < rec.Arrival {
			t.Fatalf("frame %d started at %v before its arrival %v", rec.Index, rec.Start, rec.Arrival)
		}
	}
}

func TestMeanCtrlFracOnlyForControlled(t *testing.T) {
	src := tinySource(t, 6)
	ctrl, err := Run(Config{Source: src, K: 1, Controlled: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.MeanCtrlFrac <= 0 {
		t.Error("controlled run must report controller overhead")
	}
	constRes, err := Run(Config{Source: src, K: 1, ConstQ: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if constRes.MeanCtrlFrac != 0 {
		t.Error("constant run must not report controller overhead")
	}
}
