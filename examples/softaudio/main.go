// Soft-deadline audio pipeline: the paper notes that "for soft
// deadlines, the Quality Manager applies only the average quality
// constraint". This example models a per-block audio effects chain
// (capture -> denoise -> equalise -> encode) whose quality level is the
// filter order. Deadlines are soft: a late block causes a glitch, not a
// failure, so the controller runs in Soft mode, trading occasional
// misses for higher average quality, and is compared against Hard mode
// over the same load.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	qos "repro"
)

const blockBudget = 5200 // cycles per audio block

func buildSystem() (*qos.System, error) {
	b := qos.NewSystemBuilder().
		Levels(0, 3).
		Actions("capture", "denoise", "equalise", "encode").
		Chain("capture", "denoise", "equalise", "encode").
		// capture and encode are fixed cost; the two filters scale
		// with the level (filter order doubles per level).
		TimeAll("capture", 300, 500).
		TimeAll("encode", 400, 700).
		DeadlineAll("encode", blockBudget)
	for q := qos.Level(0); q <= 3; q++ {
		fl := qos.Cycles(1 << uint(q)) // 1,2,4,8
		b.Time("denoise", q, fl.MulSat(250), fl.MulSat(450))
		b.Time("equalise", q, fl.MulSat(200), fl.MulSat(350))
	}
	return b.Build()
}

func runMode(mode qos.Mode, sys *qos.System, blocks int) (misses int, meanQ float64, err error) {
	s, err := qos.NewSession(sys, qos.WithControllerOptions(qos.WithMode(mode)))
	if err != nil {
		return 0, 0, err
	}
	rng := qos.NewRNG(7)
	var qSum float64
	for i := 0; i < blocks; i++ {
		s.Reset()
		res, err := s.RunFunc(func(a qos.ActionID, q qos.Level) qos.Cycles {
			av := sys.Cav.At(q, a)
			wc := sys.Cwc.At(q, a)
			// Every 8th block runs hot, towards the worst case; the
			// rest fluctuate around the profiled average.
			if i%8 == 7 {
				return av.AddSat(qos.Cycles((0.6 + 0.4*rng.Float64()) * float64(wc.SubSat(av))))
			}
			c := qos.Cycles(float64(av) * (0.6 + 0.8*rng.Float64()))
			if c > wc {
				c = wc
			}
			return c
		})
		if err != nil {
			return 0, 0, err
		}
		misses += res.Misses
		qSum += res.MeanLevel()
	}
	return misses, qSum / float64(blocks), nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, writing its report to w.
func run(w io.Writer) error {
	sys, err := buildSystem()
	if err != nil {
		return err
	}
	const blocks = 2000
	hardMiss, hardQ, err := runMode(qos.Hard, sys, blocks)
	if err != nil {
		return err
	}
	softMiss, softQ, err := runMode(qos.Soft, sys, blocks)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "audio pipeline, %d blocks, budget %d cycles/block\n\n", blocks, blockBudget)
	fmt.Fprintf(w, "%-6s %-10s %-10s\n", "mode", "misses", "mean quality")
	fmt.Fprintf(w, "%-6s %-10d %-10.2f\n", "hard", hardMiss, hardQ)
	fmt.Fprintf(w, "%-6s %-10d %-10.2f\n", "soft", softMiss, softQ)
	fmt.Fprintln(w, "\nhard mode guarantees zero misses by reserving worst-case slack;")
	fmt.Fprintln(w, "soft mode rides the averages: higher quality, occasional glitches.")
	return nil
}
