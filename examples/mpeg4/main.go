// MPEG-4 case study: the paper's evaluation scenario through the public
// API. A 582-frame synthetic stream (9 sequences, two of them
// overloaded) is pushed through the camera/buffer/encoder pipeline
// twice: once with the fine-grain QoS controller (buffer K=1), once at
// constant quality q=3 (the industrial baseline). The run prints the
// per-sequence outcome: the controlled encoder never skips and fills the
// 320 Mcycle budget; the constant encoder skips frames in the overloaded
// sequences.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	qos "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, writing its report to w.
func run(w io.Writer) error {
	cfg := qos.DefaultVideoConfig()
	cfg.Frames = 240 // a representative slice of the benchmark
	src, err := qos.NewVideoSource(cfg)
	if err != nil {
		return err
	}

	// The two variants are independent streams; run them concurrently
	// (nil shared budget: each assumes the whole CPU).
	results, err := qos.RunPipelineStreams([]qos.PipelineConfig{
		{Source: src, K: 1, Controlled: true, Seed: 1},
		{Source: src, K: 1, ConstQ: 3, Seed: 1},
	}, nil)
	if err != nil {
		return err
	}
	controlled, constant := results[0], results[1]

	fmt.Fprintf(w, "%-4s %-5s | %-28s | %-28s\n", "seq", "load", "controlled K=1", "constant q=3 K=1")
	fmt.Fprintf(w, "%-4s %-5s | %-8s %-9s %-8s | %-8s %-9s %-8s\n",
		"", "", "enc(Mc)", "PSNR", "skips", "enc(Mc)", "PSNR", "skips")
	nSeq := cfg.Sequences
	for s := 0; s < nSeq; s++ {
		cEnc, cPSNR, cSkip := seqSummary(controlled, s)
		kEnc, kPSNR, kSkip := seqSummary(constant, s)
		fmt.Fprintf(w, "%-4d %-5.2f | %-8.1f %-9.2f %-8d | %-8.1f %-9.2f %-8d\n",
			s, src.SequenceLoad(s), cEnc, cPSNR, cSkip, kEnc, kPSNR, kSkip)
	}
	fmt.Fprintf(w, "\ntotals: controlled skips=%d misses=%d | constant skips=%d misses=%d\n",
		controlled.Skips, controlled.Misses, constant.Skips, constant.Misses)
	fmt.Fprintf(w, "controller runtime overhead: %.2f%% of encode cycles (paper: <1.5%%)\n",
		100*controlled.MeanCtrlFrac)
	return nil
}

// seqSummary aggregates one sequence of a run.
func seqSummary(res *qos.PipelineResult, seq int) (encMc, psnr float64, skips int) {
	var encoded, frames int
	for _, r := range res.Records {
		if r.Seq != seq {
			continue
		}
		frames++
		psnr += r.PSNR
		if r.Skipped {
			skips++
			continue
		}
		encMc += float64(r.Encode) / float64(qos.Mcycle)
		encoded++
	}
	if encoded > 0 {
		encMc /= float64(encoded)
	}
	if frames > 0 {
		psnr /= float64(frames)
	}
	return encMc, psnr, skips
}
