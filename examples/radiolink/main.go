// Hard-deadline radio link: the paper motivates safety-critical QoS with
// "applications where ... hard deadlines must be respected e.g.
// communications of cellular phones". This example models a receive
// slot: synchronise -> channel-estimate -> equalise -> demodulate ->
// decode, which must complete within the slot, every slot, under a
// fading channel that changes the workload burstiness. The quality
// level selects the equaliser depth / decoder iterations: better link
// margin when time permits, guaranteed slot deadline always.
//
// A base station serves many links at once, so this example runs eight
// concurrent links through one shared qos.Runtime: the schedule and
// constraint tables are precomputed once, each link acquires a cheap
// per-stream Session, and every slot deadline holds on every link.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync"

	qos "repro"
)

const (
	slotBudget = 100_000 // cycles per receive slot
	links      = 8       // concurrent links served by one runtime
	slots      = 5000    // receive slots per link
)

func buildSystem() (*qos.System, error) {
	b := qos.NewSystemBuilder().
		Levels(0, 4).
		Actions("synchronise", "channel_estimate", "equalise", "demodulate", "decode").
		Chain("synchronise", "channel_estimate", "equalise", "demodulate", "decode").
		TimeAll("synchronise", 4_000, 7_000).
		TimeAll("channel_estimate", 6_000, 11_000).
		TimeAll("demodulate", 3_000, 5_000).
		// The whole slot is a hard deadline on the final action.
		DeadlineAll("decode", slotBudget)
	// The equaliser depth and decoder iterations scale with the level.
	for qi := 0; qi <= 4; qi++ {
		scale := qos.Cycles(qi + 1)
		b.Time("equalise", qos.Level(qi), scale.MulSat(5_000), scale.MulSat(9_000))
		b.Time("decode", qos.Level(qi), scale.MulSat(6_000), scale.MulSat(12_000))
	}
	return b.Build()
}

// linkStats aggregates one link's slots.
type linkStats struct {
	misses, fallbacks int
	qSum, utilSum     float64
	levelHist         map[qos.Level]int
	err               error
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
	// Hard mode (the default): the slot deadline is law on every link.
	rt, err := qos.NewRuntime(sys)
	if err != nil {
		return err
	}

	stats := make([]linkStats, links)
	var wg sync.WaitGroup
	for l := 0; l < links; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			st := &stats[l]
			st.levelHist = map[qos.Level]int{}
			rng := qos.NewRNG(99 + uint64(l))
			s := rt.Acquire(qos.FuncObserver{
				Decision: func(d qos.Decision) { st.levelHist[d.Level]++ },
			})
			defer rt.Release(s)
			for slot := 0; slot < slots; slot++ {
				// Fading: deep fades (every ~40 slots, offset per link)
				// push every stage toward its worst case.
				fade := 0.25
				if (slot+5*l)%40 < 3 {
					fade = 0.95
				}
				s.Reset()
				res, err := s.RunFunc(func(a qos.ActionID, q qos.Level) qos.Cycles {
					av := sys.Cav.At(q, a)
					wc := sys.Cwc.At(q, a)
					f := fade * (0.6 + 0.4*rng.Float64())
					return av.AddSat(qos.Cycles(f * float64(wc.SubSat(av))))
				})
				if err != nil {
					st.err = err
					return
				}
				st.misses += res.Misses
				st.fallbacks += res.Fallbacks
				st.qSum += res.MeanLevel()
				st.utilSum += float64(res.Elapsed) / float64(slotBudget)
			}
		}(l)
	}
	wg.Wait()
	for _, st := range stats {
		if st.err != nil {
			return st.err
		}
	}

	fmt.Fprintf(w, "radio link: %d concurrent links x %d slots, %d-cycle hard slot deadline\n",
		links, slots, slotBudget)
	fmt.Fprintf(w, "one shared runtime: tables precomputed once, sessions pooled\n\n")
	fmt.Fprintf(w, "%-5s %-8s %-10s %-8s %-12s\n", "link", "misses", "breaches", "mean-q", "utilisation")
	var missTotal int
	for l, st := range stats {
		missTotal += st.misses
		fmt.Fprintf(w, "%-5d %-8d %-10d %-8.2f %10.1f%%\n",
			l, st.misses, st.fallbacks, st.qSum/slots, 100*st.utilSum/slots)
	}
	agg := rt.Stats()
	fmt.Fprintf(w, "\nruntime totals: %d slots served, %d actions, %d misses\n",
		agg.Cycles, agg.Actions, agg.Misses)
	if missTotal == 0 {
		fmt.Fprintln(w, "hard guarantee held on every link while quality tracked the fading.")
	}
	fmt.Fprintln(w, "\nper-level action counts, link 0 (adaptation to fading):")
	for _, q := range sys.Levels {
		fmt.Fprintf(w, "  q%d: %d\n", q, stats[0].levelHist[q])
	}
	return nil
}
