package mixer_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/mixer"
	"repro/internal/session"
)

// fleetLeaseK is FuzzFleetSafety's lease window, in epochs.
const fleetLeaseK = 2

// member is one admitted stream of FuzzFleetSafety: a budgeted session
// over its grant, and the epoch of its last lease renewal (its admission
// or its last Reset).
type member struct {
	g       *mixer.Grant
	s       *session.Session
	rt      *session.Runtime
	soft    bool
	stalled bool
	renewed uint64
}

// FuzzFleetSafety is the composed safety property: admitted hard streams
// honouring their execution contract never miss, whatever other streams
// do around them. Real budgeted sessions share one leased Fair budget;
// the input is an opcode/argument byte stream (ops[2k] selects the op,
// ops[2k+1] parameterises it) interleaving admit (hard or soft), release,
// stall/resume, SetTotal, Rebalance and a cycle of every stream that is
// not stalled. Every cycle charges each action a cost inside [Cav, Cwc]
// of the level the controller chose. After every op it asserts
//
//   - Σ granted ≤ total;
//   - zero misses, and no error, on every healthy hard stream;
//   - a grant is revoked exactly when its stream renewed its lease more
//     than K epochs before the last Rebalance, and a revoked or released
//     grant fails fast: its session's next Reset reports ErrGrantRevoked
//     and runs nothing.
func FuzzFleetSafety(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 6, 0, 5, 0, 6, 1, 5, 0, 6, 2})                   // two hard streams serve across epochs
	f.Add([]byte{0, 0, 0, 0, 3, 1, 5, 0, 6, 0, 5, 0, 5, 0, 5, 0, 6, 2})       // a stall outlives its lease
	f.Add([]byte{0, 0, 1, 0, 1, 0, 6, 1, 4, 0, 6, 1, 4, 200, 6, 2, 5, 0})     // soft floors shed by a shrink
	f.Add([]byte{0, 0, 0, 0, 2, 0, 6, 0, 0, 0, 6, 1, 2, 1, 2, 0, 6, 2, 5, 0}) // release, re-admit, double release
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 2, 5, 0, 6, 1, 5, 0, 3, 2}) // full budget, stall and resume
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
		f.Fatal(err)
	}
	hardRT, err := session.NewRuntime(sys)
	if err != nil {
		f.Fatal(err)
	}
	softRT, err := session.NewRuntime(sys, core.WithMode(core.Soft))
	if err != nil {
		f.Fatal(err)
	}
	spec, err := mixer.SpecFromProgram(hardRT.Program())
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		// Room for four streams at full quality, or six at their floor.
		total := spec.FullNeed.MulSat(4)
		b, err := mixer.New(total, mixer.Fair)
		if err != nil {
			t.Fatal(err)
		}
		b.SetLease(fleetLeaseK)
		var epoch uint64
		var fleet []*member
		defer func() {
			for _, m := range fleet {
				m.rt.Release(m.s)
				m.g.Release()
			}
		}()
		// drop retires fleet[i]: it releases the session and, when
		// release is set, the grant, which must then fail fast.
		drop := func(i int, release bool) {
			m := fleet[i]
			fleet = append(fleet[:i], fleet[i+1:]...)
			m.rt.Release(m.s)
			if release {
				m.g.Release()
				m.g.Release() // idempotent
			}
			if _, err := m.g.LeaseDelay(); !errors.Is(err, mixer.ErrGrantRevoked) {
				t.Fatalf("LeaseDelay of a retired grant: %v", err)
			}
		}
		for pc := 0; pc+1 < len(ops); pc += 2 {
			arg := int(ops[pc+1])
			switch ops[pc] % 7 {
			case 0, 1:
				m := &member{soft: ops[pc]%7 == 1, rt: hardRT, renewed: epoch}
				sp := spec
				if sp.Soft = m.soft; m.soft {
					m.rt = softRT
				}
				if m.g, err = b.Admit(sp); err != nil {
					if !errors.Is(err, mixer.ErrBudgetExhausted) {
						t.Fatalf("op %d: admit: %v", pc/2, err)
					}
					break
				}
				m.s = m.rt.AcquireBudgeted(m.g)
				if m.s.Err() != nil {
					t.Fatalf("op %d: fresh grant: %v", pc/2, m.s.Err())
				}
				fleet = append(fleet, m)
			case 2:
				if len(fleet) > 0 {
					drop(arg%len(fleet), true)
				}
			case 3:
				if len(fleet) > 0 {
					m := fleet[arg%len(fleet)]
					m.stalled = !m.stalled
				}
			case 4:
				// Shrinks below the hard reserves must be refused.
				_ = b.SetTotal(spec.MinNeed.MulSat(core.Cycles(arg%8 + 1)))
			case 5:
				b.Rebalance()
				epoch++
				for _, m := range fleet {
					if want := epoch-m.renewed > fleetLeaseK; m.g.Revoked() != want {
						t.Fatalf("op %d: epoch %d, last renewal %d: revoked %v, want %v",
							pc/2, epoch, m.renewed, m.g.Revoked(), want)
					}
				}
			case 6:
				for i := 0; i < len(fleet); i++ {
					m := fleet[i]
					if m.stalled {
						continue
					}
					if m.cycle(t, sys, arg) {
						drop(i, false)
						i--
						continue
					}
					m.renewed = epoch
				}
			}
			if st := b.Stats(); st.Granted > st.Total {
				t.Fatalf("op %d: granted %v > total %v", pc/2, st.Granted, st.Total)
			}
		}
	})
}

// cycle runs one cycle of the member's stream and reports whether its
// grant was revoked. A revoked grant must fail fast: Reset latches
// ErrGrantRevoked and the cycle runs no action. A healthy hard stream
// must serve without error or miss.
func (m *member) cycle(t *testing.T, sys *core.System, arg int) bool {
	t.Helper()
	ran := false
	work := func(a core.ActionID, q core.Level) core.Cycles {
		ran = true
		av, wc := sys.Cav.At(q, a), sys.Cwc.At(q, a)
		switch arg % 3 {
		case 0:
			return av
		case 1:
			return wc
		}
		return av.AddSat(wc.SubSat(av) / 2)
	}
	m.s.Reset()
	res, err := m.s.RunFunc(work)
	if m.g.Revoked() {
		if !errors.Is(m.s.Err(), mixer.ErrGrantRevoked) || !errors.Is(err, mixer.ErrGrantRevoked) || ran {
			t.Fatalf("revoked grant: Err %v, Run %v, workload ran %v", m.s.Err(), err, ran)
		}
		return true
	}
	if err != nil {
		t.Fatalf("healthy stream (soft %v): %v", m.soft, err)
	}
	if !m.soft && res.Misses != 0 {
		t.Fatalf("healthy hard stream missed %d deadlines", res.Misses)
	}
	return false
}
