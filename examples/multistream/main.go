// Multistream: 16 concurrent MPEG macroblock streams served under ONE
// shared CPU budget. One Runtime shares the precomputed program; a
// SharedBudget (the mixer) splits the global cycle budget per period
// across the admitted streams. The demo runs two phases:
//
//  1. all 16 streams admitted — each gets a slice of the budget and
//     settles at a reduced quality level, with zero deadline misses;
//  2. half the streams release their grants — the mixer re-partitions
//     the freed slack at the next cycle boundaries and the survivors'
//     quality climbs;
//  3. robustness: budget leasing is armed and two faults are injected —
//     one stream stalls (its lease expires and the reaper reclaims the
//     share; the stream fails fast with ErrGrantRevoked when it wakes)
//     and one stream's workload panics (the session recovers, returns
//     the grant, and quarantines its controller so no stream is
//     served on it again).
//
// Run from the repository root:
//
//	go run ./examples/multistream
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync"

	qos "repro"
)

func main() {
	modelPath := flag.String("model", "examples/models/mpeg_body.qos", "path to the .qos model")
	streams := flag.Int("streams", 16, "concurrent streams under the shared budget")
	cycles := flag.Int("cycles", 200, "cycles per stream and phase")
	flag.Parse()
	if err := run(os.Stdout, *modelPath, *streams, *cycles); err != nil {
		log.Fatal(err)
	}
}

// run is the example on the model at modelPath, writing its report to w.
func run(w io.Writer, modelPath string, streams, cycles int) error {
	b, err := qos.LoadModel(modelPath)
	if err != nil {
		return err
	}
	sys, err := b.Build()
	if err != nil {
		return err
	}
	rt, err := qos.NewRuntime(sys)
	if err != nil {
		return err
	}
	spec, err := qos.StreamSpecFromProgram(rt.Program())
	if err != nil {
		return err
	}
	// Budget the period between the admission floor (every stream at
	// qmin) and full quality — 30% of the way up: the mixer has real
	// arbitration to do.
	perStream := spec.MinNeed.AddSat(spec.FullNeed.SubSat(spec.MinNeed).MulSat(3) / 10)
	total := perStream.MulSat(qos.Cycles(streams))
	shared, err := qos.NewSharedBudget(total, qos.FairShare)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "model %s: nominal=%v min-need=%v full-need=%v\n",
		modelPath, spec.Nominal, spec.MinNeed, spec.FullNeed)
	fmt.Fprintf(w, "shared budget %v per period across %d streams (policy %s)\n\n",
		total, streams, shared.Policy())

	grants := make([]*qos.StreamGrant, streams)
	for i := range grants {
		if grants[i], err = shared.Admit(spec); err != nil {
			return fmt.Errorf("stream %d rejected: %w", i, err)
		}
	}
	st := shared.Stats()
	fmt.Fprintf(w, "admitted %d/%d streams: committed %v, slack %v, degraded=%v\n",
		st.Streams, streams, st.Committed, st.Slack, st.Degraded)

	phase := func(name string, active int) error {
		type agg struct {
			meanQ     float64
			misses    int
			fallbacks int
			err       error
		}
		results := make([]agg, active)
		var wg sync.WaitGroup
		for i := 0; i < active; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := qos.NewRNG(uint64(i + 1))
				s := rt.AcquireBudgeted(grants[i])
				defer rt.Release(s)
				var qSum float64
				for c := 0; c < cycles; c++ {
					s.Reset()
					res, err := s.RunFunc(func(a qos.ActionID, q qos.Level) qos.Cycles {
						av := sys.Cav.At(q, a)
						wc := sys.Cwc.At(q, a)
						if wc.IsInf() {
							wc = av.MulSat(2)
						}
						// Respect the execution contract C ≤ Cwc: hard
						// deadlines must therefore never miss.
						return av.AddSat(qos.Cycles(rng.Float64() * float64(wc.SubSat(av)) / 4))
					})
					if err != nil {
						results[i].err = err
						return
					}
					qSum += res.MeanLevel()
					results[i].misses += res.Misses
					results[i].fallbacks += res.Fallbacks
				}
				results[i].meanQ = qSum / float64(cycles)
			}(i)
		}
		wg.Wait()
		var q float64
		var misses, fallbacks int
		for _, r := range results {
			if r.err != nil {
				return r.err
			}
			q += r.meanQ
			misses += r.misses
			fallbacks += r.fallbacks
		}
		share := grants[0].Share()
		fmt.Fprintf(w, "%-22s: %2d streams × %d cycles, share=%v/stream, mean level %.2f, misses=%d fallbacks=%d\n",
			name, active, cycles, share, q/float64(active), misses, fallbacks)
		return nil
	}

	if err := phase("phase 1 (all streams)", streams); err != nil {
		return err
	}

	// Half the tenants leave; their slack flows to the survivors.
	for i := streams / 2; i < streams; i++ {
		grants[i].Release()
	}
	if err := phase("phase 2 (half released)", streams/2); err != nil {
		return err
	}

	// Phase 3: robustness. Arm leasing — a grant now stays alive only
	// while its stream keeps reaching cycle boundaries — then inject the
	// two canonical faults.
	fmt.Fprintln(w)
	shared.SetLease(2)

	// The staller: stream 0 stops serving. Every Rebalance advances the
	// lease epoch; past the window the reaper revokes the grant and
	// reclaims its reservation for the fleet.
	staller := rt.AcquireBudgeted(grants[0])
	for epoch := 0; epoch < 4; epoch++ {
		// The healthy survivors keep reaching cycle boundaries — each
		// read renews their lease. Stream 0 has stalled and never does.
		for i := 1; i < streams/2; i++ {
			_ = grants[i].Share()
		}
		shared.Rebalance()
	}
	staller.Reset() // the stream "wakes up" on a reclaimed share
	fmt.Fprintf(w, "phase 3 (stall) : grant revoked=%v, session fails fast: %v\n",
		grants[0].Revoked(), staller.Err())
	rt.Release(staller)

	// The panicker: stream 1's workload dies mid-cycle. The session
	// recovers, releases the grant back to the budget, and quarantines
	// the controller — no stream will be served on it again.
	panicker := rt.AcquireBudgeted(grants[1])
	_, perr := panicker.RunFunc(func(qos.ActionID, qos.Level) qos.Cycles {
		panic("decoder hit a corrupt macroblock")
	})
	fmt.Fprintf(w, "phase 3 (panic) : %v\n", perr)
	fmt.Fprintf(w, "                  controller quarantined=%v, grant share=%v, pool quarantines=%d\n",
		panicker.Controller().Quarantined(), grants[1].Share(), rt.Stats().Quarantined)
	rt.Release(panicker)

	st = shared.Stats()
	fmt.Fprintf(w, "phase 3 budget  : %d streams still admitted, committed %v, revoked=%d\n",
		st.Streams, st.Committed, st.Revoked)

	agg := rt.Stats()
	fmt.Fprintf(w, "\nruntime served %d cycles / %d actions (misses=%d)\n",
		agg.Cycles, agg.Actions, agg.Misses)
	for i := 2; i < streams/2; i++ {
		grants[i].Release()
	}
	return nil
}
