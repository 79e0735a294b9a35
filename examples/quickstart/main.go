// Quickstart: declare a three-action pipeline with two quality levels
// in one SystemBuilder, open a Session, and run a few cycles under
// random load. This is the smallest complete use of the public API:
// model the application, validate it, and let the controller pick
// quality levels that never miss the cycle deadline while filling the
// time budget.
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
	// The application: fetch -> process -> emit, once per cycle. Only
	// "process" depends on the level: the high-quality path averages
	// 60 cycles (worst case 100), the low one 20 (worst case 30). One
	// hard deadline: the cycle must finish within 124 cycles. The
	// high-quality process (worst case 100) plus emit (worst case 12)
	// leaves 12 cycles of margin: q1 is admitted only after fast
	// fetches, so runs mix both levels.
	sys, err := qos.NewSystemBuilder().
		Levels(0, 1).
		Actions("fetch", "process", "emit").
		Chain("fetch", "process", "emit").
		TimeAll("fetch", 10, 15).
		Time("process", 0, 20, 30).
		Time("process", 1, 60, 100).
		TimeAll("emit", 10, 12).
		DeadlineAll("emit", 124).
		Build()
	if err != nil {
		return err // names the offending action and level
	}

	// One stream, one session. An observer records the cycle's
	// decisions and watches the controller degrade quality when a slow
	// fetch would make q1 unsafe.
	var lowDecisions int
	var decided []qos.Decision
	s, err := qos.NewSession(sys, qos.WithObserver(qos.FuncObserver{
		Decision: func(d qos.Decision) {
			decided = append(decided, d)
			if d.Level == 0 {
				lowDecisions++
			}
		},
	}))
	if err != nil {
		return err
	}

	// Simulated execution: actual times land between average and worst
	// case, drawn from a deterministic generator.
	rng := qos.NewRNG(42)
	g := sys.Graph
	for cycle := 0; cycle < 5; cycle++ {
		s.Reset()
		decided = decided[:0]
		res, err := s.RunFunc(func(a qos.ActionID, q qos.Level) qos.Cycles {
			av := sys.Cav.At(q, a)
			wc := sys.Cwc.At(q, a)
			return av.AddSat(qos.Cycles(rng.Float64() * float64(wc.SubSat(av))))
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "cycle %d: finished at t=%-4s quality=", cycle, res.Elapsed)
		for i, d := range decided {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprintf(w, "%s@q%d", g.Name(d.Action), d.Level)
		}
		fmt.Fprintf(w, "  misses=%d\n", res.Misses)
	}
	fmt.Fprintf(w, "\n%d decisions ran at q0: the controller holds q1 while the\n", lowDecisions)
	fmt.Fprintln(w, "budget allows and degrades process whenever q1 would be unsafe.")
	return nil
}
