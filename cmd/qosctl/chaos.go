// The chaos subcommand: drive a mixed hard/soft fleet of the model's
// streams under a deterministic injected fault schedule (stalls,
// workload panics, contract overruns, admission storms, budget
// shrinks) and print a scorecard. The run fails (exit 1) if a
// robustness invariant is violated: a healthy hard-mode stream missed
// a deadline, Σ granted shares exceeded the total after a rebalance,
// a stalled stream's grant was not reclaimed, or a quarantined
// controller was handed out again.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	qos "repro"
	"repro/internal/faultinject"
)

// parseFaultKinds maps the -faults flag to fault kinds; nil means the
// full mix.
func parseFaultKinds(s string) ([]faultinject.Kind, error) {
	if s == "" || s == "all" {
		return nil, nil
	}
	var kinds []faultinject.Kind
	for _, name := range strings.Split(s, ",") {
		switch strings.TrimSpace(name) {
		case "stall":
			kinds = append(kinds, faultinject.Stall)
		case "panic":
			kinds = append(kinds, faultinject.WorkloadPanic)
		case "overrun":
			kinds = append(kinds, faultinject.Overrun)
		case "storm":
			kinds = append(kinds, faultinject.AdmissionStorm)
		case "shrink":
			kinds = append(kinds, faultinject.TotalShrink)
		default:
			return nil, fmt.Errorf("chaos: unknown fault kind %q (want stall, panic, overrun, storm, shrink or all)", name)
		}
	}
	return kinds, nil
}

// chaosMember is one fleet member's drive-loop state.
type chaosMember struct {
	sess   *qos.Session
	grant  *qos.StreamGrant
	ctrl   *qos.Controller
	rt     *qos.Runtime
	work   qos.Workload
	soft   bool
	done   bool
	misses int64
	period int // shared with the fault-injecting workload wrapper
}

func chaos(cfg cliConfig, out io.Writer) error {
	if cfg.cycles < 8 {
		return fmt.Errorf("chaos: -cycles %d: need at least 8 periods for a fault horizon", cfg.cycles)
	}
	if cfg.lease < 1 {
		return fmt.Errorf("chaos: -lease %d: need a positive lease window", cfg.lease)
	}
	kinds, err := parseFaultKinds(cfg.faults)
	if err != nil {
		return err
	}
	sys, _, err := buildSystem(cfg.modelPath)
	if err != nil {
		return err
	}
	hardRT, err := qos.NewRuntime(sys)
	if err != nil {
		return err
	}
	softRT, err := qos.NewRuntime(sys, qos.WithMode(qos.Soft))
	if err != nil {
		return err
	}
	spec, err := qos.StreamSpecFromProgram(hardRT.Program())
	if err != nil {
		return err
	}
	streams, periods, leaseK := cfg.streams, cfg.cycles, cfg.lease
	nSoft := streams / 4
	// Budget: by default every stream's qmin floor plus a quarter of the
	// way to full quality — tight enough that degradation is live, loose
	// enough that healthy hard streams always fit.
	total := qos.Cycles(cfg.budget)
	if cfg.budget <= 0 {
		perStream := spec.MinNeed.AddSat(spec.FullNeed.SubSat(spec.MinNeed) / 4)
		total = perStream.MulSat(qos.Cycles(streams))
	}
	budget, err := qos.NewSharedBudget(total, qos.FairShare)
	if err != nil {
		return err
	}
	budget.SetLease(leaseK)

	sched := faultinject.New(cfg.seed, streams, periods, kinds...)
	fmt.Fprintf(out, "fleet: %d streams (%d hard, %d soft), %d periods, lease K=%d, budget %v\n",
		streams, streams-nSoft, nSoft, periods, leaseK, total)
	fmt.Fprintf(out, "fault schedule (seed %d): %v\n", cfg.seed, sched.Events())

	fleet := make([]*chaosMember, streams)
	quarantined := map[*qos.Controller]bool{}
	for i := range fleet {
		m := &chaosMember{soft: i >= streams-nSoft, rt: hardRT}
		if m.soft {
			m.rt = softRT
		}
		sp := spec
		sp.Soft = m.soft
		if m.grant, err = budget.Admit(sp); err != nil {
			return fmt.Errorf("admit stream %d: %w", i, err)
		}
		m.sess = m.rt.AcquireBudgeted(m.grant)
		m.ctrl = m.sess.Controller()
		rng := qos.NewRNG(cfg.seed ^ uint64(i+1))
		base := qos.WorkloadFunc(func(a qos.ActionID, q qos.Level) qos.Cycles {
			av, wc := sys.Cav.At(q, a), sys.Cwc.At(q, a)
			if wc.IsInf() {
				wc = av.MulSat(2)
			}
			return av.AddSat(qos.Cycles(cfg.load * rng.Float64() * float64(wc.SubSat(av))))
		})
		m.work = sched.Workload(i, &m.period, base)
		fleet[i] = m
	}

	var violations []string
	violatef := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	var globals []faultinject.Event
	panics, revokeProbes, shrinks := 0, 0, 0
	stormAttempts, stormAdmitted := 0, 0
	var stormMu sync.Mutex
	for p := 0; p < periods; p++ {
		globals = sched.GlobalFaults(globals[:0], p)
		for _, ev := range globals {
			switch ev.Kind {
			case faultinject.TotalShrink:
				st := budget.Stats()
				target := qos.Cycles(float64(st.Total) * ev.Arg)
				if target < st.HardCommitted {
					target = st.HardCommitted
				}
				if err := budget.SetTotal(target); err != nil {
					violatef("p%d: graceful shrink to %v refused: %v", p, target, err)
					continue
				}
				shrinks++
				fmt.Fprintf(out, "p%2d: shrink total %v -> %v (soft demoted: %d)\n",
					p, st.Total, target, budget.Stats().SoftDemoted)
			case faultinject.AdmissionStorm:
				var wg sync.WaitGroup
				for n := 0; n < int(ev.Arg); n++ {
					wg.Add(1)
					stormAttempts++
					go func() {
						defer wg.Done()
						ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
						defer cancel()
						if g, err := budget.AdmitWait(ctx, spec); err == nil {
							stormMu.Lock()
							stormAdmitted++
							stormMu.Unlock()
							g.Release()
						}
					}()
				}
				wg.Wait()
				fmt.Fprintf(out, "p%2d: admission storm, %d attempts\n", p, int(ev.Arg))
			}
		}

		for i, m := range fleet {
			if m.done {
				continue
			}
			m.period = p
			if ev, ok := sched.StreamFault(i); ok && ev.Kind == faultinject.Stall && p >= ev.Period {
				// Stalled: the stream completes no cycles, so its lease
				// expires. A few epochs past the window it "wakes up" and
				// must fail fast on the reclaimed grant.
				if p >= ev.Period+leaseK+3 {
					m.sess.Reset()
					if err := m.sess.Err(); !errors.Is(err, qos.ErrGrantRevoked) {
						violatef("stalled stream %d woke to err=%v, want ErrGrantRevoked", i, err)
					} else {
						revokeProbes++
						fmt.Fprintf(out, "p%2d: stream %d revoked after stall (lease expired)\n", p, i)
					}
					m.done = true
					m.rt.Release(m.sess)
				}
				continue
			}
			m.sess.Reset()
			res, err := m.sess.Run(m.work)
			if err != nil {
				if errors.Is(err, qos.ErrWorkloadPanic) {
					panics++
					if !m.ctrl.Quarantined() {
						violatef("stream %d panicked but controller not quarantined", i)
					}
					quarantined[m.ctrl] = true
					fmt.Fprintf(out, "p%2d: stream %d panicked; controller quarantined, grant released\n", p, i)
					m.done = true
					m.rt.Release(m.sess)
					continue
				}
				if sched.Healthy(i) && !m.soft {
					violatef("healthy hard stream %d errored: %v", i, err)
					m.done = true
					m.rt.Release(m.sess)
				}
				continue
			}
			m.misses += int64(res.Misses)
		}

		budget.Rebalance()
		if st := budget.Stats(); st.Granted > st.Total {
			violatef("p%d: conservation violated: granted %v > total %v", p, st.Granted, st.Total)
		}
	}

	var healthyHardMisses, otherMisses int64
	for i, m := range fleet {
		if sched.Healthy(i) && !m.soft {
			healthyHardMisses += m.misses
		} else {
			otherMisses += m.misses
		}
	}
	if healthyHardMisses != 0 {
		violatef("healthy hard streams recorded %d misses, want 0", healthyHardMisses)
	}

	// No quarantined controller may be handed out again.
	for _, rt := range []*qos.Runtime{hardRT, softRT} {
		var held []*qos.Session
		for n := 0; n < 2*streams; n++ {
			s := rt.Acquire()
			if quarantined[s.Controller()] {
				violatef("quarantined controller handed out again")
			}
			held = append(held, s)
		}
		for _, s := range held {
			rt.Release(s)
		}
	}

	// Release the survivors; the budget must drain.
	for _, m := range fleet {
		if !m.done {
			m.grant.Release()
			m.rt.Release(m.sess)
		}
	}
	if st := budget.Stats(); st.Streams != 0 || st.Granted != 0 || st.Committed != 0 {
		violatef("budget did not drain after release: %+v", st)
	}

	bst := budget.Stats()
	quarantines := hardRT.Stats().Quarantined + softRT.Stats().Quarantined
	fmt.Fprintf(out, "scorecard: revocations=%d (probed %d) quarantines=%d storms=%d/%d admitted shrinks=%d\n",
		bst.Revoked, revokeProbes, quarantines, stormAdmitted, stormAttempts, shrinks)
	fmt.Fprintf(out, "misses: healthy-hard=%d faulty/soft=%d\n", healthyHardMisses, otherMisses)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(out, "VIOLATION:", v)
		}
		return fmt.Errorf("chaos: %d robustness invariant violation(s)", len(violations))
	}
	fmt.Fprintln(out, "all robustness invariants held")
	return nil
}
