package core

// This file implements the Quality Manager's admissibility predicates
// (section 2.2):
//
//	Qual_Const^av(α,θ,t,i): t ≤ min( D_θ(α[i+1,n]) − Ĉav_θ(α[i+1,n]) )
//	Qual_Const^wc(α,θ,t,i): t ≤ min( D_θ'(α[i+1,n]) − Ĉwc_θ'(α[i+1,n]) )
//	    with θ'(α(j)) = qmin for j > i+1, θ' = θ elsewhere
//	Qual_Const = Qual_Const^av ∧ Qual_Const^wc
//
// The controller decides on precomputed suffix-slack tables along its
// fixed schedule α (the prototype tool's fast path, figure 4). The
// direct evaluations below, with BestSched, are the paper's operators
// as written; tests hold the tables to them.

// QualConstAv evaluates the average-time (optimality) constraint for the
// remaining suffix alpha[i:] under assignment asg at elapsed time t.
func QualConstAv(s *System, alpha []ActionID, asg Assignment, t Cycles, i int) bool {
	c := s.Cav.ForAssignment(asg)
	d := s.D.ForAssignment(asg)
	return MinSlack(alpha[i:], c, d, t) >= 0
}

// QualConstWc evaluates the worst-case (safety) constraint: the next
// action α(i) runs at θ(α(i)) with its worst-case time, and all actions
// after it fall back to qmin; every deadline of the suffix must still be
// met. This guarantees the controller can always retreat to minimal
// quality without missing a deadline.
func QualConstWc(s *System, alpha []ActionID, asg Assignment, t Cycles, i int) bool {
	asgWc := asg.Clone()
	qmin := s.QMin()
	for j := i + 1; j < len(alpha); j++ {
		asgWc[alpha[j]] = qmin
	}
	c := s.Cwc.ForAssignment(asgWc)
	d := s.D.ForAssignment(asgWc)
	// Soft deadlines are excluded from the safety constraint: only the
	// average constraint speaks for them (paper §4).
	if s.Soft != nil {
		d = d.Clone()
		for a, soft := range s.Soft {
			if soft {
				d[a] = Inf
			}
		}
	}
	return MinSlack(alpha[i:], c, d, t) >= 0
}

// QualConst is the conjunction of the average and worst-case constraints.
func QualConst(s *System, alpha []ActionID, asg Assignment, t Cycles, i int) bool {
	return QualConstAv(s, alpha, asg, t, i) && QualConstWc(s, alpha, asg, t, i)
}

// Tables holds the precomputed values used by the generated controller
// (figure 4: "tables containing pre-computed values used by the
// controller for the computation of Qual_Const^av and Qual_Const^wc").
//
// For a fixed schedule order alpha, feasible at qmin under worst-case
// times, define for each level q and position i:
//
//	SlackAv(q, i) = min_{j≥i} ( D_q(α(j)) − Σ_{k=i..j} Cav_q(α(k)) )
//	SlackWc(q, i) = min( D_q(α(i)),  WcQminSlack[i+1] ) − Cwc_q(α(i))
//	WcQminSlack[i] = min_{j≥i} ( D_qmin(α(j)) − Σ_{k=i..j} Cwc_qmin(α(k)) )
//
// Then Qual_Const(θ▷_i q, t) holds iff t ≤ min(SlackAv(q,i), SlackWc(q,i)),
// a single comparison per candidate level against the combined slack.
//
// The slacks are stored as contiguous position-major slabs (entry
// [i·|Q|+q]): a decision at position i reads one run of adjacent memory
// across all levels, instead of striding through |Q| separate
// level-major rows. The combined slack min(av, wc) is precomputed so the
// hard-mode hot path touches exactly one slab.
//
// When the combined slack at a position is non-increasing in the level —
// which holds whenever the deadline family does not grow with quality
// faster than the execution times, and always when deadlines are
// quality-identical — admissibility t ≤ slack is a threshold test over a
// monotone array and the maximal admissible level is found by binary
// search in O(log|Q|). Positions with a non-monotone slack profile
// (possible when D_q increases steeply with q) are flagged at
// construction and fall back to the linear scan; MaxAdmissibleLevel
// handles both transparently.
type Tables struct {
	Alpha []ActionID
	nl    int // number of levels; slab row stride

	// Position-major slabs, entry [i*nl + qi], positions 0..n-1.
	avSlack  []Cycles // SlackAv(q, i): the Qual_Const^av threshold
	wcSlack  []Cycles // SlackWc(q, i): the Qual_Const^wc threshold
	minSlack []Cycles // min(av, wc): the hard-mode combined threshold

	// Per-position monotonicity of the threshold rows (non-increasing in
	// the level index), the precondition of the binary-search selector.
	avMono  []bool
	minMono []bool

	// WcQminSlack[i] is the qmin/worst-case suffix slack (fallback
	// feasibility from position i); entry n is +Inf.
	WcQminSlack []Cycles
}

// NewTables precomputes constraint tables for the system along the fixed
// schedule order alpha. alpha must be a schedule of s.Graph.
func NewTables(s *System, alpha []ActionID) *Tables {
	n := len(alpha)
	nl := len(s.Levels)
	t := &Tables{
		Alpha:       append([]ActionID(nil), alpha...),
		nl:          nl,
		avSlack:     make([]Cycles, n*nl),
		wcSlack:     make([]Cycles, n*nl),
		minSlack:    make([]Cycles, n*nl),
		avMono:      make([]bool, n),
		minMono:     make([]bool, n),
		WcQminSlack: make([]Cycles, n+1),
	}
	// Fallback suffix at qmin / worst case. Only hard deadlines bind
	// the safety constraint.
	cwcMin := s.Cwc.AtIndex(0)
	dMin := s.HardDeadlines(0)
	t.WcQminSlack[n] = Inf
	for i := n - 1; i >= 0; i-- {
		a := alpha[i]
		t.WcQminSlack[i] = MinCycles(dMin[a], t.WcQminSlack[i+1]).SubSat(cwcMin[a])
	}
	for qi := 0; qi < nl; qi++ {
		cav := s.Cav.AtIndex(qi)
		cwc := s.Cwc.AtIndex(qi)
		d := s.D.AtIndex(qi)
		dHard := s.HardDeadlines(qi)
		next := Inf // av suffix recurrence carries av(q, i+1)
		for i := n - 1; i >= 0; i-- {
			a := alpha[i]
			av := MinCycles(d[a], next).SubSat(cav[a])
			wc := MinCycles(dHard[a], t.WcQminSlack[i+1]).SubSat(cwc[a])
			k := i*nl + qi
			t.avSlack[k] = av
			t.wcSlack[k] = wc
			t.minSlack[k] = MinCycles(av, wc)
			next = av
		}
	}
	for i := 0; i < n; i++ {
		row := i * nl
		t.avMono[i] = nonIncreasing(t.avSlack[row : row+nl])
		t.minMono[i] = nonIncreasing(t.minSlack[row : row+nl])
	}
	return t
}

// nonIncreasing reports whether vs is non-increasing left to right.
func nonIncreasing(vs []Cycles) bool {
	for k := 1; k < len(vs); k++ {
		if vs[k] > vs[k-1] {
			return false
		}
	}
	return true
}

// SlackAvAt returns SlackAv(q, i) for level index qi at position i.
func (tb *Tables) SlackAvAt(qi, i int) Cycles { return tb.avSlack[i*tb.nl+qi] }

// SlackWcAt returns SlackWc(q, i) for level index qi at position i.
func (tb *Tables) SlackWcAt(qi, i int) Cycles { return tb.wcSlack[i*tb.nl+qi] }

// CombinedSlackAt returns min(SlackAv, SlackWc) at (qi, i) — the latest
// elapsed time at which level index qi is admissible at position i under
// the full (hard-mode) constraint.
func (tb *Tables) CombinedSlackAt(qi, i int) Cycles { return tb.minSlack[i*tb.nl+qi] }

// MonotoneAt reports whether the combined-slack profile at position i is
// non-increasing in the level index, i.e. whether the binary-search
// selector applies there (soft reports the av-only profile).
func (tb *Tables) MonotoneAt(i int, soft bool) bool {
	if soft {
		return tb.avMono[i]
	}
	return tb.minMono[i]
}

// AllowedAv reports the table form of Qual_Const^av at level index qi,
// position i, elapsed time t.
func (tb *Tables) AllowedAv(qi, i int, t Cycles) bool {
	if i >= len(tb.Alpha) {
		return true
	}
	return t <= tb.avSlack[i*tb.nl+qi]
}

// AllowedWc reports the table form of Qual_Const^wc.
func (tb *Tables) AllowedWc(qi, i int, t Cycles) bool {
	if i >= len(tb.Alpha) {
		return true
	}
	return t <= tb.wcSlack[i*tb.nl+qi]
}

// Allowed reports the table form of Qual_Const.
func (tb *Tables) Allowed(qi, i int, t Cycles) bool {
	if i >= len(tb.Alpha) {
		return true
	}
	return t <= tb.minSlack[i*tb.nl+qi]
}

// MaxAdmissibleLevel implements Evaluator: the highest admissible
// level index in [0, hi] at position i and elapsed time t, together with
// the number of threshold probes performed, or (-1, probes) when no
// level is admissible. soft restricts the test to Qual_Const^av.
//
// The top candidate is probed first (the common case when the cycle is
// on time), then the remaining range is binary-searched when the slack
// profile at i is monotone, and linearly scanned otherwise.
//
//qos:hotpath
func (tb *Tables) MaxAdmissibleLevel(i, hi int, t Cycles, soft bool) (int, int) {
	slab, mono := tb.minSlack, tb.minMono
	if soft {
		slab, mono = tb.avSlack, tb.avMono
	}
	row := slab[i*tb.nl : i*tb.nl+tb.nl : i*tb.nl+tb.nl]
	probes := 1
	if t <= row[hi] {
		return hi, probes
	}
	if !mono[i] {
		for qi := hi - 1; qi >= 0; qi-- {
			probes++
			if t <= row[qi] {
				return qi, probes
			}
		}
		return -1, probes
	}
	lo, up, chosen := 0, hi-1, -1
	for lo <= up {
		probes++
		mid := int(uint(lo+up) >> 1)
		if t <= row[mid] {
			chosen = mid
			lo = mid + 1
		} else {
			up = mid - 1
		}
	}
	return chosen, probes
}

// Len returns the number of positions (actions) covered.
func (tb *Tables) Len() int { return len(tb.Alpha) }

// NumLevels returns the number of quality levels covered.
func (tb *Tables) NumLevels() int { return tb.nl }
