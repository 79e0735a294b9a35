// Package mixer is the shared-budget controller above the streams: where
// a core.Controller arbitrates quality levels of one stream against one
// cycle budget, the mixer arbitrates N concurrent streams against one
// global CPU budget per period. It lifts the paper's admissibility
// reasoning one level up — a stream is admitted only if the aggregate
// worst-case load at minimal quality still fits the budget (the global
// Qual_Const^wc), and the slack left over is re-partitioned between the
// admitted streams at cycle boundaries to maximise quality (the global
// Qual_Const^av side), under a pluggable sharing policy.
//
// The mechanism that makes a share enforceable without rebuilding any
// per-stream tables: a stream granted b of its nominal budget B starts
// each cycle with its elapsed-time view advanced by B − b
// (Controller.Preempt) — the cycles the other streams consume. Every
// admissibility test the stream's Quality Manager performs then sees the
// shrunk remaining time, so quality degrades (and hard deadlines stay
// safe, by Proposition 2.1) exactly as if the cycle had started late.
//
// # Degradation order
//
// Overload degrades in a documented order, hard guarantees last:
//
//  1. Slack shrinks: every stream falls from FullNeed toward its
//     MinNeed floor (reduced quality, no misses).
//  2. Soft floors shed: when even Σ MinNeed no longer fits (a SetTotal
//     shrink), soft-mode streams lose their MinNeed floor —
//     latest-admitted first — while hard reserves stay untouched.
//  3. Admission rejects: a new stream whose MinNeed does not fit is
//     refused (ErrBudgetExhausted) or queued (AdmitWait).
//
// Hard-mode reserves are never demoted and never revoked implicitly;
// the only way a hard stream loses its share is an explicit Release or
// a lease expiry (see below), so healthy hard streams never miss.
//
// # Leases
//
// SetLease arms liveness leasing: every cycle-boundary share read
// (CycleDelay, LeaseDelay, Share) renews the grant's lease for free,
// and each Rebalance advances the lease epoch and reaps grants that
// completed no cycle within K epochs — a crashed or stalled stream's
// reservation returns to the pool instead of starving the fleet. A
// revoked grant's next LeaseDelay reports ErrGrantRevoked, so the
// stream's session fails fast at its next Reset.
//
// # Cycle-boundary reads without the mutex
//
// The budget mutex guards admission, release, SetTotal, SetWeight,
// Rebalance and Stats. The reads every stream makes at each cycle
// boundary (LeaseDelay, CycleDelay, Share) do not take it in steady
// state; three atomics carry what they need:
//
//   - The lease word. Each grant holds its lease in one atomic word:
//     the epoch of its last renewal shifted left by one, with the low
//     bit set once the grant is dead (released or revoked). A read
//     renews by CAS at most once per epoch and writes nothing while the
//     epoch stands still. Release and the reaper kill the grant by CAS
//     too, so a renewal and a revocation are linearizable: the reaper
//     never revokes a lease that was renewed between its load and its
//     CAS, and once a kill has landed no read renews.
//   - The published delay. repartition stores each grant's
//     Nominal − share in an atomic, and a read returns it.
//   - The dirty flag. Admit, Release, SetWeight and SetTotal set it; a
//     read that finds it set takes the mutex and re-partitions once
//     (ensureShares) before reading its delay.
package mixer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Policy selects how the mixer re-partitions slack between streams.
type Policy int

const (
	// Fair splits slack equally between the admitted streams
	// (water-filling: a stream capped at its nominal budget returns the
	// unused remainder to the others).
	Fair Policy = iota
	// Weighted splits slack proportionally to each grant's weight.
	Weighted
	// Greedy maximises the aggregate quality level: it fills the
	// streams that are cheapest to lift to their full-quality need
	// first, then spreads any remainder in admission order.
	Greedy
)

func (p Policy) String() string {
	switch p {
	case Fair:
		return "fair"
	case Weighted:
		return "weighted"
	case Greedy:
		return "greedy"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ErrBudgetExhausted is returned by Admit when the aggregate worst-case
// load at minimal quality would exceed the shared budget: even with
// every stream degraded to qmin the period cannot absorb another
// stream, so the admission is rejected rather than the guarantees
// silently broken.
var ErrBudgetExhausted = errors.New("mixer: aggregate worst-case load exceeds the shared budget")

// ErrGrantRevoked is returned by Grant.LeaseDelay (and surfaced through
// session.Session at the next Reset) after the reaper revoked the grant
// for liveness: the stream completed no cycle within the lease window,
// its reservation went back to the pool, and the stream must re-admit
// to continue.
var ErrGrantRevoked = errors.New("mixer: grant revoked (lease expired or released)")

// StreamSpec is the admission contract of one stream — the three points
// of its quality/budget curve the mixer reasons about, all in cycles
// per period.
type StreamSpec struct {
	// Nominal is the stream's stand-alone cycle budget: the horizon its
	// deadline family was built for (its period). A share equal to
	// Nominal reproduces exact single-stream behaviour.
	Nominal core.Cycles
	// MinNeed is the worst-case load at minimal quality: the smallest
	// share under which the stream's Quality Manager still guarantees
	// its hard deadlines (and never falls back). Admission reserves
	// MinNeed unconditionally.
	MinNeed core.Cycles
	// FullNeed is the share at which the stream can open its cycle at
	// the top quality level; slack granted beyond it buys nothing until
	// the share reaches Nominal. MinNeed ≤ FullNeed ≤ Nominal.
	FullNeed core.Cycles
	// Weight biases the Weighted policy; zero means 1.
	Weight float64
	// Soft marks a stream running its controller in soft mode: its
	// MinNeed floor is sheddable under pressure (degradation step 2),
	// so a SetTotal shrink demotes soft shares before it would ever
	// fail for want of hard reserves.
	Soft bool
}

// Validate checks the spec's internal consistency.
func (s StreamSpec) Validate() error {
	if s.MinNeed <= 0 || s.MinNeed.IsInf() {
		return fmt.Errorf("mixer: MinNeed %v must be positive and finite", s.MinNeed)
	}
	if s.Nominal < s.MinNeed || s.Nominal.IsInf() {
		return fmt.Errorf("mixer: Nominal %v must be finite and at least MinNeed %v", s.Nominal, s.MinNeed)
	}
	if s.FullNeed < s.MinNeed || s.FullNeed > s.Nominal {
		return fmt.Errorf("mixer: FullNeed %v outside [MinNeed %v, Nominal %v]", s.FullNeed, s.MinNeed, s.Nominal)
	}
	if s.Weight < 0 {
		return fmt.Errorf("mixer: negative weight %v", s.Weight)
	}
	return nil
}

// Budget is the goroutine-safe shared-budget controller: one global
// cycle budget per period, split across the admitted streams. All
// methods may be called from any goroutine. A grant's cycle-boundary
// read takes no lock in steady state: it renews the grant's lease word
// at most once per epoch and loads the delay repartition published; it
// takes the mutex only while the dirty flag is set (see the package
// comment).
type Budget struct {
	mu        sync.Mutex
	total     core.Cycles
	policy    Policy
	grants    []*Grant    // admission order; shares valid for the coming cycle
	committed core.Cycles // running Σ MinNeed of the admitted grants
	// hardCommitted is the Σ MinNeed of the admitted hard-mode grants
	// alone — the floor below which SetTotal refuses to shrink (soft
	// floors are sheddable, hard reserves are not).
	hardCommitted core.Cycles
	// dirty defers the share re-partition to the next read (Share,
	// CycleDelay, LeaseDelay, Stats): admissions and releases stay
	// O(1), so admitting N streams in a burst costs O(N), not O(N²).
	// It is set and cleared under mu, and read without it by the
	// grants' cycle-boundary reads; it is cleared only after
	// repartition has published every grant's delay.
	dirty atomic.Bool
	// scratch is repartition's working buffer (sort order in Greedy,
	// open set in waterFill). It is grown in Admit so the per-cycle
	// repartition itself never allocates.
	scratch []*Grant

	// Lease bookkeeping (SetLease). epoch counts Rebalance calls while
	// leasing is armed; a grant whose lease word falls more than leaseK
	// epochs behind is revoked by the reaper. epoch is advanced under
	// mu and read without it by the renewals.
	leaseK  int
	epoch   atomic.Uint64
	revoked int64

	// waitCh, when non-nil, is closed (exactly once) the next time
	// capacity frees up — a release, a revocation, or a SetTotal growth
	// — to wake AdmitWait callers. Lazily re-armed by capacityCh.
	waitCh chan struct{}
}

// New builds a shared budget of total cycles per period under the given
// sharing policy.
func New(total core.Cycles, policy Policy) (*Budget, error) {
	if total <= 0 || total.IsInf() {
		return nil, fmt.Errorf("mixer: total budget %v must be positive and finite", total)
	}
	if policy < Fair || policy > Greedy {
		return nil, fmt.Errorf("mixer: unknown policy %d", int(policy))
	}
	return &Budget{total: total, policy: policy}, nil
}

// Policy returns the sharing policy.
func (b *Budget) Policy() Policy { return b.policy }

// Total returns the global cycle budget per period.
func (b *Budget) Total() core.Cycles {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// SetLease arms liveness leasing with a window of k epochs: a grant
// that performs no cycle-boundary share read (CycleDelay, LeaseDelay,
// Share) across more than k consecutive Rebalance calls is revoked by
// the reaper and its reservation returned to the pool. k ≤ 0 disarms
// leasing. Existing grants start with a fresh lease.
func (b *Budget) SetLease(k int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.leaseK = k
	fresh := b.epoch.Load() << 1
	for _, g := range b.grants {
		// A plain store is safe here: every grant in b.grants is alive,
		// only Release and the reaper kill, and both hold b.mu; a
		// racing renewal writes no epoch newer than the current one.
		g.lease.Store(fresh)
	}
}

// SetTotal re-targets the global budget between periods (e.g. a DVFS
// change or a co-tenant arriving) and re-partitions the shares. A
// shrink follows the degradation order: soft-mode floors are shed
// (latest-admitted first) before the call would ever fail, and it
// fails only if the hard-mode streams' aggregate minimal need no
// longer fits — the mixer never revokes a hard admission implicitly.
func (b *Budget) SetTotal(total core.Cycles) error {
	if total <= 0 || total.IsInf() {
		return fmt.Errorf("mixer: total budget %v must be positive and finite", total)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.hardCommitted > total {
		return fmt.Errorf("%w: hard-mode reserves need %v, new total %v",
			ErrBudgetExhausted, b.hardCommitted, total)
	}
	grew := total > b.total
	b.total = total
	b.dirty.Store(true)
	if grew {
		b.notifyCapacity()
	}
	return nil
}

// Admit reserves worst-case capacity for one stream and returns its
// Grant. Admission succeeds iff the aggregate minimal worst-case need —
// every stream degraded to qmin — still fits the budget; otherwise
// ErrBudgetExhausted is returned and the budget is unchanged. On
// success every admitted stream's share is re-partitioned.
func (b *Budget) Admit(spec StreamSpec) (*Grant, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Weight == 0 {
		spec.Weight = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if committed := b.committed.AddSat(spec.MinNeed); committed > b.total {
		return nil, fmt.Errorf("%w: %d streams would need %v of %v",
			ErrBudgetExhausted, len(b.grants)+1, committed, b.total)
	}
	g := &Grant{b: b, spec: spec}
	g.lease.Store(b.epoch.Load() << 1)
	b.grants = append(b.grants, g)
	if cap(b.scratch) < len(b.grants) {
		// Grow here, on the cold admission path, so the hot
		// repartition can slice b.scratch without allocating.
		b.scratch = make([]*Grant, 0, 2*len(b.grants))
	}
	b.committed = b.committed.AddSat(spec.MinNeed)
	if !spec.Soft {
		b.hardCommitted = b.hardCommitted.AddSat(spec.MinNeed)
	}
	b.dirty.Store(true)
	return g, nil
}

// AdmitWait is Admit with queuing: instead of failing immediately on a
// full budget it waits — with exponential backoff, woken early whenever
// capacity frees up (a release, a revocation, a SetTotal growth) — and
// retries until the admission fits or ctx expires. Errors other than
// ErrBudgetExhausted (an invalid spec) return immediately; a ctx
// cancellation/deadline returns ctx.Err().
//
// Cancellation is checked before every admission attempt: once ctx is
// done AdmitWait never hands out a grant and never sleeps another
// backoff. Without that check a waiter woken by a capacity event that
// raced the cancellation (the select picks among ready cases at random,
// and a just-closed capacity channel stays ready) could loop — admit,
// re-arm, back off — arbitrarily long under an admission storm, or
// worse, return a grant its caller no longer wants and would leak.
func (b *Budget) AdmitWait(ctx context.Context, spec StreamSpec) (*Grant, error) {
	backoff := time.Millisecond
	const maxBackoff = 50 * time.Millisecond
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g, err := b.Admit(spec)
		if err == nil {
			return g, nil
		}
		if !errors.Is(err, ErrBudgetExhausted) {
			return nil, err
		}
		// Arm the capacity signal, then re-check: a release between the
		// failed Admit and capacityCh must not become a lost wakeup.
		ch := b.capacityCh()
		if g, err := b.Admit(spec); err == nil {
			return g, nil
		} else if !errors.Is(err, ErrBudgetExhausted) {
			return nil, err
		}
		timer := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-ch:
			timer.Stop()
		case <-timer.C:
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// capacityCh returns a channel closed the next time capacity frees up.
func (b *Budget) capacityCh() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.waitCh == nil {
		b.waitCh = make(chan struct{})
	}
	return b.waitCh
}

// notifyCapacity wakes AdmitWait callers. Callers hold b.mu. The
// channel is dropped after the close so the hot Rebalance path never
// allocates a replacement — capacityCh re-arms lazily.
func (b *Budget) notifyCapacity() {
	if b.waitCh != nil {
		close(b.waitCh)
		b.waitCh = nil
	}
}

// Headroom returns how many more streams of the given spec the budget
// could admit right now — the closed form of Admit's acceptance rule,
// without allocating grants. Zero for an invalid spec.
func (b *Budget) Headroom(spec StreamSpec) int {
	if spec.Validate() != nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.committed >= b.total {
		return 0
	}
	return int(b.total.SubSat(b.committed) / spec.MinNeed)
}

// Rebalance forces an immediate re-partition at a period boundary.
// When leasing is armed (SetLease) it also advances the lease epoch
// and runs the reaper: grants that completed no cycle within the lease
// window are revoked, their reservations reclaimed, and budget
// conservation (Σ shares ≤ total) is asserted before returning. Admit,
// Release, SetTotal and SetWeight already schedule a re-partition for
// the next share read, so callers that do not want leasing only need
// Rebalance to pay the cost eagerly.
//
//qos:hotpath
func (b *Budget) Rebalance() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.leaseK > 0 {
		epoch, k := b.epoch.Add(1), uint64(b.leaseK)
		n := 0
		for _, g := range b.grants {
			if epoch > k && g.killBefore(epoch-k) {
				// No renewal in the last k epochs: revoked in place.
				// The stream observes ErrGrantRevoked at its next
				// LeaseDelay read.
				g.revoked = true
				b.retire(g)
				b.revoked++
				continue
			}
			b.grants[n] = g
			n++
		}
		if n < len(b.grants) {
			for i := n; i < len(b.grants); i++ {
				b.grants[i] = nil
			}
			b.grants = b.grants[:n]
			b.notifyCapacity()
		}
	}
	b.repartition()
	b.dirty.Store(false)
	granted := core.Cycles(0)
	for _, g := range b.grants {
		granted = granted.AddSat(g.share)
	}
	if granted > b.total {
		panic("mixer: budget conservation violated: granted shares exceed total after rebalance")
	}
}

// ensureShares re-partitions if membership, weights or the total
// changed since the last read. Callers hold b.mu.
func (b *Budget) ensureShares() {
	if b.dirty.Load() {
		b.repartition()
		b.dirty.Store(false)
	}
}

// retire returns a killed grant's reservation to the budget. Callers
// hold b.mu and have just killed g.
func (b *Budget) retire(g *Grant) {
	g.share = 0
	b.committed = b.committed.SubSat(g.spec.MinNeed)
	if !g.spec.Soft {
		b.hardCommitted = b.hardCommitted.SubSat(g.spec.MinNeed)
	}
	b.dirty.Store(true)
}

// Stats is a snapshot of the shared budget.
type Stats struct {
	Policy  Policy
	Streams int
	// Total is the global budget; Committed the aggregate minimal
	// worst-case need of the admitted streams; Slack their difference;
	// Granted the aggregate share actually handed out (Granted ≤
	// Total).
	Total, Committed, Slack, Granted core.Cycles
	// HardCommitted is the sheddable-floor boundary: the Σ MinNeed of
	// hard-mode grants alone, the floor SetTotal will not shrink below.
	HardCommitted core.Cycles
	// Degraded reports that at least one stream is pinned at its
	// minimal share (per-stream qmin): the aggregate full-quality load
	// exceeds the budget.
	Degraded bool
	// SoftDemoted counts soft-mode streams currently below their
	// MinNeed floor (degradation step 2 is active).
	SoftDemoted int
	// Revoked counts lease revocations since the budget was built.
	Revoked int64
}

// Stats returns a snapshot of the shared budget.
func (b *Budget) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ensureShares()
	st := Stats{
		Policy: b.policy, Streams: len(b.grants),
		Total: b.total, Committed: b.committed,
		HardCommitted: b.hardCommitted, Revoked: b.revoked,
	}
	for _, g := range b.grants {
		st.Granted = st.Granted.AddSat(g.share)
		if g.share == g.spec.MinNeed && g.spec.FullNeed > g.spec.MinNeed {
			st.Degraded = true
		}
		if g.spec.Soft && g.share < g.spec.MinNeed {
			st.SoftDemoted++
			st.Degraded = true
		}
	}
	st.Slack = st.Total.SubSat(st.Committed)
	return st
}

// repartition recomputes every grant's share for the coming cycle and
// publishes each grant's delay for the lock-free reads. Callers hold
// b.mu. A delay that did not change is not stored again, so a
// Rebalance that moves no share leaves the readers' cache lines alone.
func (b *Budget) repartition() {
	b.split()
	for _, g := range b.grants {
		if d := int64(g.spec.Nominal.SubSat(g.share)); g.delay.Load() != d {
			g.delay.Store(d)
		}
	}
}

// split computes every grant's share for the coming cycle. Callers
// hold b.mu. It applies the documented degradation order: hard
// floors first (every hard grant starts at its MinNeed — always fits,
// by the Admit/SetTotal invariants), then soft floors in admission
// order from what remains (so a shrunk budget demotes the
// latest-admitted soft streams first), then the remaining slack is
// distributed under the policy, capped per stream at its nominal
// budget. The computation is deterministic: ties and remainders
// resolve in admission order.
func (b *Budget) split() {
	n := len(b.grants)
	if n == 0 {
		return
	}
	slack := b.total
	for _, g := range b.grants {
		if !g.spec.Soft {
			g.share = g.spec.MinNeed
			slack = slack.SubSat(g.spec.MinNeed)
		}
	}
	for _, g := range b.grants {
		if g.spec.Soft {
			floor := g.spec.MinNeed
			if floor > slack {
				floor = slack
			}
			g.share = floor
			slack = slack.SubSat(floor)
		}
	}
	if slack <= 0 {
		return
	}
	switch b.policy {
	case Weighted:
		slack = b.waterFill(slack, true)
	case Greedy:
		// First lift the cheapest streams to full quality, cheapest
		// (smallest FullNeed−MinNeed gap) first. Stable insertion sort
		// over the preallocated scratch buffer: n is small and the
		// repartition must not allocate on the hot path.
		order := b.scratch[:n]
		copy(order, b.grants)
		for i := 1; i < n; i++ {
			g := order[i]
			key := g.spec.FullNeed.SubSat(g.spec.MinNeed)
			j := i
			for j > 0 && order[j-1].spec.FullNeed.SubSat(order[j-1].spec.MinNeed) > key {
				order[j] = order[j-1]
				j--
			}
			order[j] = g
		}
		for _, g := range order {
			if slack <= 0 {
				break
			}
			give := g.spec.FullNeed.SubSat(g.share)
			if give > slack {
				give = slack
			}
			g.share = g.share.AddSat(give)
			slack = slack.SubSat(give)
		}
		// …then spread what remains toward nominal, admission order.
		for _, g := range b.grants {
			if slack <= 0 {
				break
			}
			give := g.spec.Nominal.SubSat(g.share)
			if give > slack {
				give = slack
			}
			g.share = g.share.AddSat(give)
			slack = slack.SubSat(give)
		}
	default: // Fair
		slack = b.waterFill(slack, false)
	}
}

// waterFill distributes slack across the grants proportionally to their
// weights (or equally when weighted is false), capping each share at
// the stream's nominal budget and re-offering a capped stream's
// remainder to the rest. It returns the slack left when every stream is
// capped. Remainder cycles from integer division go to the
// earliest-admitted uncapped streams. The open set lives in b.scratch
// so the fill never allocates on the hot path.
func (b *Budget) waterFill(slack core.Cycles, weighted bool) core.Cycles {
	for slack > 0 {
		open := b.scratch[:len(b.grants)]
		nOpen := 0
		var wsum float64
		for _, g := range b.grants {
			if g.share < g.spec.Nominal {
				open[nOpen] = g
				nOpen++
				wsum += g.spec.Weight
			}
		}
		open = open[:nOpen]
		if len(open) == 0 || wsum <= 0 {
			return slack
		}
		given := core.Cycles(0)
		for _, g := range open {
			frac := 1 / float64(len(open))
			if weighted {
				frac = g.spec.Weight / wsum
			}
			give := core.Cycles(float64(slack) * frac)
			if max := g.spec.Nominal.SubSat(g.share); give > max {
				give = max
			}
			g.share = g.share.AddSat(give)
			given = given.AddSat(give)
		}
		if given == 0 {
			// Integer-division dust: hand single cycles out in
			// admission order until spent or everyone is capped.
			for _, g := range open {
				if slack == 0 {
					break
				}
				if g.share < g.spec.Nominal {
					g.share = g.share.AddSat(1)
					given = given.AddSat(1)
					slack = slack.SubSat(1)
				}
			}
			if given == 0 {
				return slack
			}
			continue
		}
		slack = slack.SubSat(given)
	}
	return 0
}

// leaseDead is the lease word's dead bit: set exactly once, by Release
// or the reaper, and never cleared. The rest of the word is the lease
// epoch of the grant's last renewal.
const leaseDead = 1

// Grant is one admitted stream's handle on the shared budget. A Grant
// is safe for concurrent use; the stream typically reads LeaseDelay at
// each cycle boundary (session.Runtime.AcquireBudgeted wires this up),
// which doubles as the liveness-lease renewal when SetLease armed the
// reaper. Release and the reaper are mutually exclusive (both hold the
// budget mutex) and both kill the lease word by CAS, so a grant retires
// exactly once however they race.
type Grant struct {
	b    *Budget
	spec StreamSpec // fixed at Admit except Weight, which b.mu guards
	// lease is the liveness word: renewal epoch << 1 | leaseDead.
	lease atomic.Uint64
	// delay is Nominal − share as repartition last published it.
	delay atomic.Int64
	// share and revoked are guarded by b.mu.
	share   core.Cycles
	revoked bool
}

// renew renews the lease at the current epoch and reports whether the
// grant is still alive. It writes the word at most once per epoch: a
// word already at (or past) the epoch read here stays as it is, which
// also keeps a renewal that read a stale epoch from moving the word
// backwards.
func (g *Grant) renew() bool {
	e := g.b.epoch.Load() << 1
	for {
		w := g.lease.Load()
		if w&leaseDead != 0 {
			return false
		}
		if w >= e || g.lease.CompareAndSwap(w, e) {
			return true
		}
	}
}

// killBefore kills the grant if it is alive and its last renewal is
// older than epoch e, and reports whether this call killed it. Callers
// hold b.mu. The kill is a CAS on the word it loaded: a renewal that
// lands in between makes it fail, and the reloaded word is judged
// again.
func (g *Grant) killBefore(e uint64) bool {
	for {
		w := g.lease.Load()
		if w&leaseDead != 0 || w>>1 >= e {
			return false
		}
		if g.lease.CompareAndSwap(w, w|leaseDead) {
			return true
		}
	}
}

// Spec returns the admission contract.
func (g *Grant) Spec() StreamSpec {
	g.b.mu.Lock()
	defer g.b.mu.Unlock()
	return g.spec
}

// Share returns the stream's cycle share for the coming period
// (0 once released or revoked). Reading it renews the liveness lease.
func (g *Grant) Share() core.Cycles {
	d, err := g.LeaseDelay()
	if err != nil {
		return 0
	}
	return g.spec.Nominal.SubSat(d)
}

// Revoked reports whether the reaper revoked this grant for liveness.
func (g *Grant) Revoked() bool {
	g.b.mu.Lock()
	defer g.b.mu.Unlock()
	return g.revoked
}

// CycleDelay is LeaseDelay without its error: a released or revoked
// grant yields the full Nominal handicap (the stream holds no share).
//
// Deprecated: budgeted sessions read LeaseDelay; the benchmark module
// (qosbench) is CycleDelay's last caller outside tests, and it goes
// with the next change to that directory.
//
//qos:hotpath
func (g *Grant) CycleDelay() core.Cycles {
	d, _ := g.LeaseDelay()
	return d
}

// LeaseDelay returns Nominal − Share: the elapsed-time handicap to
// charge the stream's controller at cycle start (see the package
// comment). It renews the liveness lease, or returns the full Nominal
// handicap and ErrGrantRevoked once the grant was revoked (or
// released). It takes the budget mutex only when a change left the
// shares dirty. It implements session.BudgetSource, so a budgeted
// session fails fast at its next Reset instead of serving on a
// reclaimed share.
//
//qos:hotpath
func (g *Grant) LeaseDelay() (core.Cycles, error) {
	if !g.renew() {
		return g.spec.Nominal, ErrGrantRevoked
	}
	if b := g.b; b.dirty.Load() {
		b.mu.Lock()
		b.ensureShares()
		b.mu.Unlock()
	}
	return core.Cycles(g.delay.Load()), nil
}

// SetWeight changes the stream's Weighted-policy bias; shares
// re-partition at the next read. Non-positive weights are rejected
// silently (the previous weight stays).
func (g *Grant) SetWeight(w float64) {
	if w <= 0 {
		return
	}
	g.b.mu.Lock()
	defer g.b.mu.Unlock()
	g.spec.Weight = w
	g.b.dirty.Store(true)
}

// Release returns the stream's reservation to the budget; the
// survivors' shares re-partition at their next read. Release is
// idempotent and safe against the release-vs-reclaim race: whichever
// of Release and the reaper kills the lease word first retires the
// reservation, under the budget mutex, and the other finds the grant
// dead and does nothing.
func (g *Grant) Release() {
	b := g.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if !g.killBefore(^uint64(0)) {
		return
	}
	for i, h := range b.grants {
		if h == g {
			b.grants = append(b.grants[:i], b.grants[i+1:]...)
			break
		}
	}
	b.retire(g)
	b.notifyCapacity()
}
