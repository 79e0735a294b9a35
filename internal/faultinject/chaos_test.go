// Chaos tests: drive a 16-stream mixed hard/soft fleet under the full
// injected fault mix and assert the paper's invariant survives — zero
// deadline misses for healthy hard-mode streams, every revoked share
// reclaimed (Σ shares ≤ total after each Rebalance), and no controller
// from a panicked session ever handed out again. CI soaks this with
// -race -count=3 over the fixed seed matrix below.
package faultinject_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/mixer"
	"repro/internal/platform"
	"repro/internal/session"
)

// chaosSeeds is the fixed seed matrix CI soaks; each seed yields a
// different deterministic fault mix over the same fleet.
var chaosSeeds = []uint64{1, 7, 42}

const (
	chaosStreams = 16
	chaosSoft    = 4 // the last 4 streams run soft-mode controllers
	chaosPeriods = 64
	chaosLeaseK  = 3
)

func chaosSystem(t testing.TB) *core.System {
	t.Helper()
	sys, err := session.NewSystemBuilder().
		Levels(0, 2).
		Actions("in", "work", "out").
		Chain("in", "work", "out").
		TimeAll("in", 5, 8).
		Time("work", 0, 10, 20).
		Time("work", 1, 20, 40).
		Time("work", 2, 30, 60).
		TimeAll("out", 5, 8).
		DeadlineAll("out", 100).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestChaos(t *testing.T) {
	for _, seed := range chaosSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { runChaos(t, seed) })
	}
}

// chaosStream is one fleet member's drive-loop state.
type chaosStream struct {
	sess   *session.Session
	grant  *mixer.Grant
	ctrl   *core.Controller
	work   platform.Workload
	soft   bool
	done   bool // retired: panicked, or stall probe confirmed revocation
	misses int64
	period int // shared with the fault-injecting workload wrapper
}

func runChaos(t *testing.T, seed uint64) {
	sys := chaosSystem(t)
	hardRT, err := session.NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	softRT, err := session.NewRuntime(sys, core.WithMode(core.Soft))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := mixer.SpecFromProgram(hardRT.Program())
	if err != nil {
		t.Fatal(err)
	}
	// Budget: every stream's floor plus a quarter of the way to full
	// quality — tight enough that degradation is live, loose enough
	// that healthy hard streams always fit.
	perStream := spec.MinNeed.AddSat(spec.FullNeed.SubSat(spec.MinNeed) / 4)
	budget, err := mixer.New(perStream.MulSat(chaosStreams), mixer.Fair)
	if err != nil {
		t.Fatal(err)
	}
	budget.SetLease(chaosLeaseK)

	sched := faultinject.New(seed, chaosStreams, chaosPeriods)
	t.Logf("fault schedule: %v", sched.Events())

	fleet := make([]*chaosStream, chaosStreams)
	quarantinedCtrls := map[*core.Controller]bool{}
	for i := range fleet {
		st := &chaosStream{soft: i >= chaosStreams-chaosSoft}
		sp := spec
		sp.Soft = st.soft
		if st.grant, err = budget.Admit(sp); err != nil {
			t.Fatalf("admit stream %d: %v", i, err)
		}
		if st.soft {
			st.sess = softRT.AcquireBudgeted(st.grant)
		} else {
			st.sess = hardRT.AcquireBudgeted(st.grant)
		}
		st.ctrl = st.sess.Controller()
		rng := platform.NewRNG(seed ^ uint64(i+1))
		base := platform.WorkloadFunc(func(a core.ActionID, q core.Level) core.Cycles {
			av, wc := sys.Cav.At(q, a), sys.Cwc.At(q, a)
			return av + core.Cycles(rng.Float64()*float64(wc-av))
		})
		st.work = sched.Workload(i, &st.period, base)
		fleet[i] = st
	}

	var globals []faultinject.Event
	panicsFired, revokesSeen, stormAttempts := 0, 0, 0
	for p := 0; p < chaosPeriods; p++ {
		// Fleet-level faults first: they hit the period boundary.
		globals = sched.GlobalFaults(globals[:0], p)
		for _, ev := range globals {
			switch ev.Kind {
			case faultinject.TotalShrink:
				st := budget.Stats()
				target := core.Cycles(float64(st.Total) * ev.Arg)
				if target < st.HardCommitted {
					target = st.HardCommitted
				}
				if err := budget.SetTotal(target); err != nil {
					t.Fatalf("p%d: graceful shrink to %v failed: %v", p, target, err)
				}
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
							g.Release()
						} else if !errors.Is(err, context.DeadlineExceeded) {
							t.Errorf("p%d: storm admission failed oddly: %v", p, err)
						}
					}()
				}
				wg.Wait()
			}
		}

		for i, st := range fleet {
			if st.done {
				continue
			}
			st.period = p
			if ev, ok := sched.StreamFault(i); ok && ev.Kind == faultinject.Stall && p >= ev.Period {
				// Stalled: no cycles complete, so the lease expires. A
				// few epochs past the window the stream "wakes up" and
				// must fail fast on its reclaimed grant.
				if p >= ev.Period+chaosLeaseK+3 {
					st.sess.Reset()
					if err := st.sess.Err(); !errors.Is(err, mixer.ErrGrantRevoked) {
						t.Fatalf("stalled stream %d woke to err=%v, want ErrGrantRevoked", i, err)
					}
					if !st.grant.Revoked() {
						t.Fatalf("stalled stream %d's grant not marked revoked", i)
					}
					revokesSeen++
					st.done = true
					if st.soft {
						softRT.Release(st.sess)
					} else {
						hardRT.Release(st.sess)
					}
				}
				continue
			}
			st.sess.Reset()
			res, err := st.sess.Run(st.work)
			if err != nil {
				if errors.Is(err, session.ErrWorkloadPanic) {
					panicsFired++
					if !st.ctrl.Quarantined() {
						t.Fatalf("stream %d panicked but controller not quarantined", i)
					}
					quarantinedCtrls[st.ctrl] = true
					if !st.grant.Revoked() {
						// The quarantine path releases the grant; a
						// released grant reports ErrGrantRevoked via
						// LeaseDelay but Revoked() is reaper-only.
						if st.grant.Share() != 0 {
							t.Fatalf("panicked stream %d's grant kept share %v", i, st.grant.Share())
						}
					}
					st.done = true
					if st.soft {
						softRT.Release(st.sess)
					} else {
						hardRT.Release(st.sess)
					}
					continue
				}
				if sched.Healthy(i) && !st.soft {
					t.Fatalf("healthy hard stream %d errored: %v", i, err)
				}
				continue
			}
			st.misses += int64(res.Misses)
		}

		// Period boundary: reap + repartition; Rebalance itself panics
		// if Σ shares > total, and we double-check through Stats.
		budget.Rebalance()
		if st := budget.Stats(); st.Granted > st.Total {
			t.Fatalf("p%d: conservation violated: granted %v > total %v", p, st.Granted, st.Total)
		}
	}

	// The invariant: healthy hard-mode streams never missed.
	for i, st := range fleet {
		if sched.Healthy(i) && !st.soft && st.misses != 0 {
			t.Errorf("healthy hard stream %d recorded %d misses", i, st.misses)
		}
	}

	// Every stall was revoked and reclaimed; every panic quarantined.
	nStall, nPanic := 0, 0
	for _, ev := range sched.Events() {
		switch ev.Kind {
		case faultinject.Stall:
			nStall++
		case faultinject.WorkloadPanic:
			nPanic++
		}
	}
	bst := budget.Stats()
	if int(bst.Revoked) != nStall || revokesSeen != nStall {
		t.Errorf("revocations: reaper %d, observed %d, want %d", bst.Revoked, revokesSeen, nStall)
	}
	if panicsFired != nPanic {
		t.Errorf("panics fired %d, scheduled %d", panicsFired, nPanic)
	}
	if got := hardRT.Stats().Quarantined + softRT.Stats().Quarantined; got != int64(nPanic) {
		t.Errorf("runtimes count %d quarantines, want %d", got, nPanic)
	}
	if stormAttempts == 0 {
		t.Error("no admission-storm attempts ran")
	}
	// Committed reflects exactly the surviving reservations.
	want := spec.MinNeed.MulSat(core.Cycles(chaosStreams - nStall - nPanic))
	if bst.Committed != want {
		t.Errorf("committed %v after reclaim, want %v", bst.Committed, want)
	}

	// No quarantined controller is ever handed out again by either
	// runtime.
	for _, rt := range []*session.Runtime{hardRT, softRT} {
		var out []*session.Session
		for n := 0; n < 2*chaosStreams; n++ {
			s := rt.Acquire()
			if quarantinedCtrls[s.Controller()] {
				t.Fatal("quarantined controller handed out again")
			}
			out = append(out, s)
		}
		for _, s := range out {
			rt.Release(s)
		}
	}

	// Release the survivors; the budget must drain to zero.
	for _, st := range fleet {
		if !st.done {
			st.grant.Release()
			if st.soft {
				softRT.Release(st.sess)
			} else {
				hardRT.Release(st.sess)
			}
		}
	}
	if st := budget.Stats(); st.Streams != 0 || st.Granted != 0 || st.Committed != 0 {
		t.Errorf("budget did not drain: %+v", st)
	}
}
