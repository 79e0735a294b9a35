package core

// Smoothness analysis. The paper's conclusion reports "specific
// conditions guaranteeing smoothness in terms of variations of quality
// levels chosen by the controller". This file computes, for a system
// with precomputed tables, a static bound on how far quality can DROP
// between two consecutive decisions while the execution contract
// (C ≤ Cwc_θ) holds — the quantity a viewer perceives as flicker.
//
// Reasoning, per schedule position i and level q admitted there: the
// latest time the Quality Manager can have admitted q is
//
//	tAdm(i, q) = min(SlackAv[q][i], SlackWc[q][i])
//
// and the elapsed time after running α(i) at q is at most
// tAdm(i, q) + Cwc_q(α(i)). The worst follow-up level is the largest q'
// admissible at that time at position i+1. The drop q − q' maximised
// over i and q is the guaranteed smoothness bound. Upward jumps are not
// bounded by the dynamics (they are capped by WithMaxStep if desired).

// SmoothnessReport is the result of AnalyzeSmoothness.
type SmoothnessReport struct {
	// MaxDrop is the largest possible level decrease between two
	// consecutive decisions under the contract. 0 means the quality
	// can never fall from one action to the next.
	MaxDrop int
	// WorstPosition is a schedule position witnessing MaxDrop (-1 when
	// the schedule has fewer than two actions).
	WorstPosition int
	// WorstFrom and WorstTo are the levels at the witness.
	WorstFrom, WorstTo Level
	// PerPosition[i] is the worst drop from position i to i+1.
	PerPosition []int
}

// AnalyzeSmoothness computes the guaranteed bound on downward quality
// variation for the system along the fixed schedule order alpha, the
// order the controller's tables are built along.
func AnalyzeSmoothness(s *System, alpha []ActionID) SmoothnessReport {
	tb := NewTables(s, alpha)
	return analyzeSmoothness(s, tb, alpha)
}

func analyzeSmoothness(s *System, ev Evaluator, alpha []ActionID) SmoothnessReport {
	n := len(alpha)
	rep := SmoothnessReport{WorstPosition: -1, PerPosition: make([]int, 0, n)}
	if n < 2 {
		return rep
	}
	nl := len(s.Levels)
	for i := 0; i+1 < n; i++ {
		worst := 0
		for qi := 0; qi < nl; qi++ {
			tAdm, ok := latestAdmission(ev, qi, i)
			if !ok {
				continue // level never admissible here
			}
			after := tAdm.AddSat(s.Cwc.AtIndex(qi)[alpha[i]])
			// Largest level admissible at position i+1 at time `after`.
			next := -1
			for qj := nl - 1; qj >= 0; qj-- {
				if Allowed(ev, qj, i+1, after) {
					next = qj
					break
				}
			}
			if next < 0 {
				// Even qmin inadmissible: the contract still guarantees
				// feasibility of the remaining schedule (the wc check at
				// step i accounted for the qmin tail), so treat as a
				// drop to qmin.
				next = 0
			}
			if d := qi - next; d > worst {
				worst = d
				if d > rep.MaxDrop {
					rep.MaxDrop = d
					rep.WorstPosition = i
					rep.WorstFrom = s.Levels[qi]
					rep.WorstTo = s.Levels[next]
				}
			}
		}
		rep.PerPosition = append(rep.PerPosition, worst)
	}
	return rep
}

// latestAdmission returns the largest elapsed time at which level index
// qi is admissible at position i, and whether it is admissible at all.
// For table evaluators this is the minimum of the two slack entries; for
// other evaluators it is found by binary search on the monotone
// admissibility predicate.
func latestAdmission(ev Evaluator, qi, i int) (Cycles, bool) {
	if tb, ok := ev.(*Tables); ok {
		s := tb.CombinedSlackAt(qi, i)
		if s < 0 {
			return 0, false
		}
		return s, true
	}
	if !Allowed(ev, qi, i, 0) {
		return 0, false
	}
	// Admissibility is downward closed in t: binary search the frontier.
	lo, hi := Cycles(0), Cycles(1)
	for Allowed(ev, qi, i, hi) {
		if hi.IsInf() || hi > 1<<60 {
			return Inf, true
		}
		//qos:overflow-ok hi ≤ 2^60 (capped above); doubling stays well under MaxInt64
		hi *= 2
	}
	//qos:overflow-ok 0 ≤ lo < hi ≤ 2^61 throughout; the +1 and midpoint arithmetic cannot overflow
	for lo+1 < hi {
		//qos:overflow-ok 0 ≤ lo < hi ≤ 2^61; midpoint arithmetic cannot overflow
		mid := lo + (hi-lo)/2
		if Allowed(ev, qi, i, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

// AnalyzeSmoothnessIterative runs the analysis over an iterative-table
// evaluator (e.g. the MPEG frame), avoiding the unrolled generic tables.
// Positions repeat with the body period, so only the first two bodies
// plus the final body need inspection; this helper simply analyses the
// provided evaluator over the full order it carries.
func AnalyzeSmoothnessIterative(s *System, it *IterativeTables) SmoothnessReport {
	return analyzeSmoothness(s, it, it.Order())
}
