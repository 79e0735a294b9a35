// Quality-scalable video decoder: the other classic consumer-terminal
// workload (after Wüst et al. / Isovic & Fohler, the related work the
// paper positions against). A decoder cannot slow the display — each
// frame has a hard display deadline — so a scalable decoder trades
// motion-compensation precision and post-processing strength against
// the cycles actually consumed by the incoming bitstream. This example
// builds the decode chain with the public SystemBuilder, decodes the
// same synthetic stream at several display deadlines through Sessions,
// and compares against the constant-level baseline, showing that the
// fine-grain controller converts headroom into quality without ever
// missing a display slot.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	qos "repro"
)

// The per-frame decode chain. Only motion compensation (interpolation
// precision: integer-pel .. quarter-pel + OBMC) and post-processing
// (off .. full deblock/dering/temporal) depend on the quality level.
var (
	mcTimes = [4][2]qos.Cycles{{320_000, 450_000}, {460_000, 700_000}, {640_000, 1_000_000}, {780_000, 1_300_000}}
	ppTimes = [4][2]qos.Cycles{{15_000, 30_000}, {260_000, 420_000}, {520_000, 860_000}, {900_000, 1_500_000}}
)

func buildSystem(deadline qos.Cycles) (*qos.System, error) {
	b := qos.NewSystemBuilder().
		Levels(0, 3).
		Actions("parse", "vld", "iquant", "idct", "mocomp", "postproc", "render").
		Chain("parse", "vld", "iquant", "idct", "mocomp", "postproc", "render").
		TimeAll("parse", 20_000, 40_000).
		TimeAll("vld", 450_000, 1_100_000).
		TimeAll("iquant", 180_000, 260_000).
		TimeAll("idct", 420_000, 520_000).
		TimeAll("render", 90_000, 120_000).
		DeadlineAll("render", deadline)
	for q := qos.Level(0); q <= 3; q++ {
		b.Time("mocomp", q, mcTimes[q][0], mcTimes[q][1])
		b.Time("postproc", q, ppTimes[q][0], ppTimes[q][1])
	}
	return b.Build()
}

// frameBound sums the whole-frame cost bound at level q straight from
// the built system's families, so it can never drift from the model.
func frameBound(sys *qos.System, q qos.Level, wc bool) qos.Cycles {
	fam := sys.Cav
	if wc {
		fam = sys.Cwc
	}
	var s qos.Cycles
	for a := 0; a < sys.Graph.Len(); a++ {
		s = s.AddSat(fam.At(q, qos.ActionID(a)))
	}
	return s
}

// decode runs the synthetic stream under fine-grain control and returns
// (mean level, misses, mean budget use).
func decode(deadline qos.Cycles, frames, gop int, seed uint64) (float64, int, float64, error) {
	sys, err := buildSystem(deadline)
	if err != nil {
		return 0, 0, 0, err
	}
	s, err := qos.NewSession(sys)
	if err != nil {
		return 0, 0, 0, err
	}
	rng := qos.NewRNG(seed)
	var lvl, cons float64
	misses := 0
	for f := 0; f < frames; f++ {
		// Bitstream-driven load: I-frames carry dense coefficients
		// (hot VLD/IDCT), the rest fluctuate around the average.
		hot := 0.35
		if f%gop == 0 {
			hot = 0.85
		}
		s.Reset()
		res, err := s.RunFunc(func(a qos.ActionID, q qos.Level) qos.Cycles {
			av := sys.Cav.At(q, a)
			wc := sys.Cwc.At(q, a)
			frac := hot * (0.5 + 0.5*rng.Float64())
			return av.AddSat(qos.Cycles(frac * float64(wc.SubSat(av))))
		})
		if err != nil {
			return 0, 0, 0, err
		}
		misses += res.Misses
		lvl += res.MeanLevel()
		cons += float64(res.Elapsed) / float64(deadline)
	}
	return lvl / float64(frames), misses, cons / float64(frames), nil
}

// decodeConstant is the fixed-level baseline: no controller, misses
// whenever the frame's actual cost exceeds the deadline.
func decodeConstant(deadline qos.Cycles, q qos.Level, frames, gop int, seed uint64) (int, float64, error) {
	sys, err := buildSystem(deadline)
	if err != nil {
		return 0, 0, err
	}
	alpha := qos.EDFSchedule(sys.Graph, sys.Cwc.AtIndex(int(q)), sys.D.AtIndex(int(q)))
	rng := qos.NewRNG(seed)
	misses := 0
	var cons float64
	for f := 0; f < frames; f++ {
		hot := 0.35
		if f%gop == 0 {
			hot = 0.85
		}
		var t qos.Cycles
		missed := false
		for _, a := range alpha {
			av := sys.Cav.At(q, a)
			wc := sys.Cwc.At(q, a)
			frac := hot * (0.5 + 0.5*rng.Float64())
			t = t.AddSat(av.AddSat(qos.Cycles(frac * float64(wc.SubSat(av)))))
			if dl := sys.D.At(q, a); !dl.IsInf() && t > dl {
				missed = true
			}
		}
		if missed {
			misses++
		}
		cons += float64(t) / float64(deadline)
	}
	return misses, cons / float64(frames), nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, writing its report to w.
func run(w io.Writer) error {
	const frames, gop = 400, 12
	mc := func(c qos.Cycles) float64 { return float64(c) / float64(qos.Mcycle) }
	// A reference build (no deadline) to read the cost bounds from.
	ref, err := buildSystem(qos.Inf)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "decoding %d frames (GOP %d)\n", frames, gop)
	fmt.Fprintf(w, "frame cost: q0 av=%.2fMc wc=%.2fMc | q3 av=%.2fMc wc=%.2fMc\n\n",
		mc(frameBound(ref, 0, false)), mc(frameBound(ref, 0, true)),
		mc(frameBound(ref, 3, false)), mc(frameBound(ref, 3, true)))

	fmt.Fprintf(w, "%-22s %-10s %-8s %-10s\n", "deadline (Mcycle)", "mean q", "misses", "budget use")
	for _, deadline := range []qos.Cycles{
		frameBound(ref, 0, true).AddSat(200_000), // barely above the safe floor
		3_100_000,                                // the baseline comparison point below
		3_800_000,
		4_600_000,
		5_400_000,
		frameBound(ref, 3, true), // everything fits even at worst case
	} {
		meanQ, misses, use, err := decode(deadline, frames, gop, 2025)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-22.2f %-10.2f %-8d %-10.2f\n", mc(deadline), meanQ, misses, use)
	}

	fmt.Fprintln(w, "\nconstant-level baseline at a tight 3.1 Mcycle deadline")
	fmt.Fprintln(w, "(the fine-grain controller decodes the same stream there without misses):")
	fmt.Fprintf(w, "%-22s %-10s %-8s %-10s\n", "level", "mean q", "misses", "budget use")
	for q := qos.Level(0); q <= 3; q++ {
		misses, use, err := decodeConstant(3_100_000, q, frames, gop, 2025)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "q%-21d %-10.2f %-8d %-10.2f\n", q, float64(q), misses, use)
	}
	fmt.Fprintln(w, "\nthe controller rides the deadline: zero misses at every budget,")
	fmt.Fprintln(w, "with quality scaling to whatever the bitstream leaves over.")
	return nil
}
