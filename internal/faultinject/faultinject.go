// Package faultinject is a deterministic chaos harness for the
// shared-budget serving stack: from one seed it derives a repeatable
// schedule of stream- and fleet-level faults — stalls, workload panics,
// beyond-contract overruns, admission storms, budget shrinks — that a
// test (or the qosctl chaos subcommand) injects through the existing
// seams: platform.Workload for in-cycle faults (Workload wrapper),
// mixer.Budget for global ones (the driver applies GlobalFaults at each
// period boundary), and plain drive-loop control for stalls (the driver
// simply stops running a stalled stream's cycles, which is exactly what
// a crashed stream looks like to the mixer's reaper).
//
// The package generates schedules and manifests faults; it asserts
// nothing. The chaos tests layered on top assert the paper's invariant
// under fault load: healthy hard-mode streams never miss, revoked
// shares are reclaimed (Σ shares ≤ total after every Rebalance), and
// poisoned controllers are never handed out again.
package faultinject

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
)

// Kind enumerates the injectable fault kinds.
type Kind uint8

const (
	// Stall freezes one stream: from the fault period on it completes
	// no cycles (the driver skips it), so its lease expires and the
	// mixer reaper revokes its grant.
	Stall Kind = iota
	// WorkloadPanic makes one stream's workload panic mid-cycle at the
	// fault period, exercising Session.Run's recover/quarantine path.
	WorkloadPanic
	// Overrun breaks one stream's execution contract from the fault
	// period on: observed costs exceed Cwc by the event's Arg factor.
	// The paper's guarantee does not cover contract breakers — the
	// point of injecting them is asserting the *other* streams stay
	// unharmed.
	Overrun
	// AdmissionStorm is a fleet-level burst: Arg extra admission
	// attempts arrive at once at the fault period (driven through
	// Budget.AdmitWait), exercising backoff and rejection under a full
	// budget.
	AdmissionStorm
	// TotalShrink is a fleet-level mid-flight Budget.SetTotal shrink to
	// the Arg fraction of the current total, exercising the documented
	// degradation order (soft floors shed before hard reserves).
	TotalShrink
	numKinds
)

// AllKinds lists every fault kind, for schedules that want the full mix.
var AllKinds = []Kind{Stall, WorkloadPanic, Overrun, AdmissionStorm, TotalShrink}

func (k Kind) String() string {
	switch k {
	case Stall:
		return "stall"
	case WorkloadPanic:
		return "panic"
	case Overrun:
		return "overrun"
	case AdmissionStorm:
		return "storm"
	case TotalShrink:
		return "shrink"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault. Stream-level kinds (Stall,
// WorkloadPanic, Overrun) target Stream and persist from Period on;
// fleet-level kinds (AdmissionStorm, TotalShrink) carry Stream = -1
// and fire once at Period.
type Event struct {
	Kind   Kind
	Stream int // target stream, or -1 for fleet-level events
	Period int // first period at which the fault manifests
	// Arg parameterises the fault: the overrun factor (> 1), the storm
	// size (attempts), or the shrink fraction (0 < Arg < 1).
	Arg float64
}

func (e Event) String() string {
	if e.Stream < 0 {
		return fmt.Sprintf("%v@p%d(arg=%g)", e.Kind, e.Period, e.Arg)
	}
	return fmt.Sprintf("%v@p%d(stream=%d,arg=%g)", e.Kind, e.Period, e.Stream, e.Arg)
}

// Schedule is a deterministic fault plan over a fleet: at most one
// stream-level fault per stream (so "healthy" is well defined) plus a
// set of fleet-level events. The same (seed, streams, periods, kinds)
// always yields the same schedule.
type Schedule struct {
	seed    uint64
	streams int
	periods int

	perStream []Event // index = stream; Kind == numKinds means healthy
	global    []Event // fleet-level events, period-ordered
}

// New derives a schedule from the seed. streams and periods bound the
// fleet; kinds selects the fault mix (defaults to AllKinds when
// empty). Stream-level kinds each afflict 1 + streams/8 distinct
// streams; fleet-level kinds fire once each. Fault periods land in the
// middle half of the horizon so every run has a healthy warm-up and a
// post-fault recovery window.
func New(seed uint64, streams, periods int, kinds ...Kind) *Schedule {
	if streams <= 0 || periods <= 0 {
		panic("faultinject: streams and periods must be positive")
	}
	if len(kinds) == 0 {
		kinds = AllKinds
	}
	s := &Schedule{seed: seed, streams: streams, periods: periods}
	s.perStream = make([]Event, streams)
	for i := range s.perStream {
		s.perStream[i] = Event{Kind: numKinds, Stream: i}
	}
	rng := platform.NewRNG(seed)
	// A deterministic shuffle of the stream indices; afflicted streams
	// are drawn from the front, so distinct kinds hit distinct streams.
	perm := make([]int, streams)
	for i := range perm {
		perm[i] = i
	}
	for i := streams - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	cursor := 0
	for _, k := range kinds {
		switch k {
		case Stall, WorkloadPanic, Overrun:
			n := 1 + streams/8
			for i := 0; i < n && cursor < streams; i++ {
				ev := Event{Kind: k, Stream: perm[cursor], Period: s.faultPeriod(rng)}
				if k == Overrun {
					ev.Arg = 2 + 2*rng.Float64() // 2–4× the contract
				}
				s.perStream[ev.Stream] = ev
				cursor++
			}
		case AdmissionStorm:
			s.global = append(s.global, Event{
				Kind: k, Stream: -1, Period: s.faultPeriod(rng),
				Arg: float64(2 + rng.Intn(6)),
			})
		case TotalShrink:
			s.global = append(s.global, Event{
				Kind: k, Stream: -1, Period: s.faultPeriod(rng),
				Arg: 0.5 + 0.4*rng.Float64(),
			})
		}
	}
	return s
}

// faultPeriod picks a period in the middle half of the horizon.
func (s *Schedule) faultPeriod(rng *platform.RNG) int {
	lo := s.periods / 4
	span := s.periods/2 + 1
	return lo + rng.Intn(span)
}

// Seed returns the schedule's seed.
func (s *Schedule) Seed() uint64 { return s.seed }

// Streams returns the fleet size the schedule was derived for.
func (s *Schedule) Streams() int { return s.streams }

// Periods returns the horizon the schedule was derived for.
func (s *Schedule) Periods() int { return s.periods }

// StreamFault returns the stream's scheduled fault, if any.
func (s *Schedule) StreamFault(stream int) (Event, bool) {
	if stream < 0 || stream >= len(s.perStream) {
		return Event{}, false
	}
	ev := s.perStream[stream]
	return ev, ev.Kind != numKinds
}

// Healthy reports whether the stream has no scheduled fault — the
// population the chaos invariants (zero hard-mode misses) quantify
// over.
func (s *Schedule) Healthy(stream int) bool {
	_, faulty := s.StreamFault(stream)
	return !faulty
}

// GlobalFaults appends to dst the fleet-level events firing at the
// given period and returns the result; the driver applies them at the
// period boundary before serving the streams.
func (s *Schedule) GlobalFaults(dst []Event, period int) []Event {
	for _, ev := range s.global {
		if ev.Period == period {
			dst = append(dst, ev)
		}
	}
	return dst
}

// Events returns every scheduled event (stream-level and fleet-level),
// for logging and scorecards.
func (s *Schedule) Events() []Event {
	var evs []Event
	for _, ev := range s.perStream {
		if ev.Kind != numKinds {
			evs = append(evs, ev)
		}
	}
	return append(evs, s.global...)
}

// Workload wraps a stream's base workload with its scheduled in-cycle
// fault. The returned workload is driven by the shared period counter:
// the driver advances *period once per period, and from the fault's
// onset period a WorkloadPanic panics while an Overrun scales every
// observed cost by Arg (breaking the Cwc contract). Streams without an
// in-cycle fault get the base workload back unchanged. Stalls do not
// manifest in the workload — the driver skips stalled streams' cycles
// entirely (StreamFault tells it when).
func (s *Schedule) Workload(stream int, period *int, base platform.Workload) platform.Workload {
	ev, ok := s.StreamFault(stream)
	if !ok || (ev.Kind != WorkloadPanic && ev.Kind != Overrun) {
		return base
	}
	return platform.WorkloadFunc(func(a core.ActionID, q core.Level) core.Cycles {
		c := base.Cost(a, q)
		if *period < ev.Period {
			return c
		}
		if ev.Kind == WorkloadPanic {
			panic(fmt.Sprintf("faultinject: scheduled panic for stream %d at period %d", stream, *period))
		}
		// Overrun: scale beyond the contract. The float round-trip is
		// the arithmetic barrier — no raw Cycles multiplication.
		return core.Cycles(float64(c) * ev.Arg)
	})
}
