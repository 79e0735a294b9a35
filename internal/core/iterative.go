package core

import "fmt"

// This file implements the paper's extension for iterative programs
// ("compositional generation of EDF schedules for iterative programs",
// section 4): when a cycle is the n-fold chained iteration of a body
// graph and the only finite deadline is the end-of-cycle budget, the
// constraint tables are affine in the number of remaining iterations.
// Instead of 2·|Q|·(9n) precomputed slacks, the controller stores
// 2·|Q|·9 suffix sums over one body — constant memory in n, which is
// what keeps the paper's <=1% memory overhead claim honest for
// N-macroblock frames — and re-budgeting between frames becomes O(1).

// Evaluator is the Quality Manager's admissibility oracle along a fixed
// schedule order: position i is the number of completed actions, t the
// elapsed time. Tables (generic) and IterativeTables (body-periodic)
// both implement it.
type Evaluator interface {
	// AllowedAv is the table form of Qual_Const^av.
	AllowedAv(qi, i int, t Cycles) bool
	// AllowedWc is the table form of Qual_Const^wc.
	AllowedWc(qi, i int, t Cycles) bool
	// MaxAdmissibleLevel is the controller's decision: the highest
	// admissible level index in [0, hi] at position i and elapsed time
	// t (hi already carries any smoothness clamp), or -1 when none is
	// admissible, together with the number of probes performed (the
	// ControllerStats.CandidateEval currency). soft restricts the test
	// to Qual_Const^av. Admissibility at a fixed position is a
	// threshold test t ≤ slack over a (usually monotone) per-position
	// slack profile, so Tables and IterativeTables answer in O(log|Q|).
	MaxAdmissibleLevel(i, hi int, t Cycles, soft bool) (chosen, probes int)
}

// Allowed evaluates the conjunction on any Evaluator.
func Allowed(ev Evaluator, qi, i int, t Cycles) bool {
	return ev.AllowedAv(qi, i, t) && ev.AllowedWc(qi, i, t)
}

var _ Evaluator = (*Tables)(nil)
var _ Evaluator = (*IterativeTables)(nil)

// IterativeTables is the constant-memory evaluator for a cycle that is
// the chained n-fold unrolling of a body, with a single end-of-cycle
// deadline (the frame budget). The schedule order must visit iterations
// in order, with the same in-body order every iteration.
type IterativeTables struct {
	bodyLen int
	iters   int
	budget  Cycles

	// Per level: suffix sums of Cav over one body (index j = sum over
	// in-body positions j..bodyLen-1), and the full-body sum.
	sufAv     [][]Cycles
	bodySumAv []Cycles
	// Worst case at the decision level for the in-body position.
	cwcAt [][]Cycles
	// Fallback tail at qmin/worst case: suffix within the body after
	// the decided action, and the full-body sum.
	sufWcMin     []Cycles
	bodySumWcMin Cycles

	order []ActionID
}

// NewIterativeTables builds the evaluator from the body-level families
// and the in-body schedule order. bodyOrder must be a schedule of the
// body graph; iters is the number of chained iterations; budget the
// end-of-cycle deadline.
func NewIterativeTables(body *System, bodyOrder []ActionID, iters int, budget Cycles) (*IterativeTables, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("core: iterative tables need a positive iteration count, got %d", iters)
	}
	if !body.Graph.IsSchedule(bodyOrder) {
		return nil, fmt.Errorf("core: bodyOrder is not a schedule of the body graph")
	}
	bl := len(bodyOrder)
	nl := len(body.Levels)
	it := &IterativeTables{bodyLen: bl, iters: iters, budget: budget}
	it.sufAv = make([][]Cycles, nl)
	it.bodySumAv = make([]Cycles, nl)
	it.cwcAt = make([][]Cycles, nl)
	it.sufWcMin = make([]Cycles, bl+1)
	for qi := 0; qi < nl; qi++ {
		cav := body.Cav.AtIndex(qi)
		cwc := body.Cwc.AtIndex(qi)
		suf := make([]Cycles, bl+1)
		for j := bl - 1; j >= 0; j-- {
			suf[j] = suf[j+1].AddSat(cav[bodyOrder[j]])
		}
		it.sufAv[qi] = suf
		it.bodySumAv[qi] = suf[0]
		at := make([]Cycles, bl)
		for j := 0; j < bl; j++ {
			at[j] = cwc[bodyOrder[j]]
		}
		it.cwcAt[qi] = at
	}
	cwcMin := body.Cwc.AtIndex(0)
	for j := bl - 1; j >= 0; j-- {
		it.sufWcMin[j] = it.sufWcMin[j+1].AddSat(cwcMin[bodyOrder[j]])
	}
	it.bodySumWcMin = it.sufWcMin[0]

	// Materialise the full schedule order once (needed by the
	// controller for action identities; IDs follow Graph.Unroll layout).
	it.order = make([]ActionID, 0, bl*iters)
	for k := 0; k < iters; k++ {
		for _, a := range bodyOrder {
			it.order = append(it.order, ActionID(k*body.Graph.Len()+int(a)))
		}
	}
	return it, nil
}

// Order returns the full unrolled schedule order.
func (it *IterativeTables) Order() []ActionID { return it.order }

// Budget returns the current end-of-cycle deadline.
func (it *IterativeTables) Budget() Cycles { return it.budget }

// SetBudget re-targets the evaluator to a new frame budget in O(1).
func (it *IterativeTables) SetBudget(b Cycles) { it.budget = b }

// UpdateAverages recomputes the average-time suffix sums in place from
// the body system's (possibly relearned) Cav family. Worst-case data is
// untouched, so safety is unaffected; this is the hook for online
// learning of averages. The body order must be the one the tables were
// built with.
func (it *IterativeTables) UpdateAverages(body *System, bodyOrder []ActionID) error {
	if len(bodyOrder) != it.bodyLen {
		return fmt.Errorf("core: UpdateAverages body order has %d actions, tables built for %d", len(bodyOrder), it.bodyLen)
	}
	for qi := range it.sufAv {
		cav := body.Cav.AtIndex(qi)
		suf := it.sufAv[qi]
		suf[it.bodyLen] = 0
		for j := it.bodyLen - 1; j >= 0; j-- {
			suf[j] = suf[j+1].AddSat(cav[bodyOrder[j]])
		}
		it.bodySumAv[qi] = suf[0]
	}
	return nil
}

// split decomposes a global position into (iteration, in-body index).
func (it *IterativeTables) split(i int) (m, j int) {
	return i / it.bodyLen, i % it.bodyLen
}

// AllowedAv implements Evaluator: t <= budget − Σ Cav_q(remaining).
func (it *IterativeTables) AllowedAv(qi, i int, t Cycles) bool {
	if i >= it.bodyLen*it.iters {
		return true
	}
	if it.budget.IsInf() {
		return true
	}
	m, j := it.split(i)
	rem := it.sufAv[qi][j].AddSat(it.bodySumAv[qi].MulSat(Cycles(it.iters - 1 - m)))
	if rem.IsInf() {
		return false
	}
	//qos:overflow-ok budget and rem are finite non-negative (guarded above); their difference is within (−MaxInt64, MaxInt64]
	return t <= it.budget-rem
}

// AllowedWc implements Evaluator: t <= budget − Cwc_q(next) − Σ
// Cwc_qmin(tail).
func (it *IterativeTables) AllowedWc(qi, i int, t Cycles) bool {
	if i >= it.bodyLen*it.iters {
		return true
	}
	if it.budget.IsInf() {
		return true
	}
	m, j := it.split(i)
	tail := it.sufWcMin[j+1].AddSat(it.bodySumWcMin.MulSat(Cycles(it.iters - 1 - m)))
	need := it.cwcAt[qi][j].AddSat(tail)
	if need.IsInf() {
		return false
	}
	//qos:overflow-ok budget and need are finite non-negative (guarded above); their difference is within (−MaxInt64, MaxInt64]
	return t <= it.budget-need
}

// admissible is the conjunction the selector probes: Qual_Const^av, and
// in hard mode also Qual_Const^wc.
func (it *IterativeTables) admissible(qi, i int, t Cycles, soft bool) bool {
	if soft {
		return it.AllowedAv(qi, i, t)
	}
	return it.AllowedAv(qi, i, t) && it.AllowedWc(qi, i, t)
}

// MaxAdmissibleLevel implements Evaluator in O(log|Q|) probes with
// O(1) slack evaluation per probe. The suffix sums are non-decreasing in
// the level (execution times are, by System invariant), so the
// admissible set at a fixed position is always a prefix of the level
// set and binary search applies unconditionally — the iterative tables
// have no non-monotone fallback case.
//
//qos:hotpath
func (it *IterativeTables) MaxAdmissibleLevel(i, hi int, t Cycles, soft bool) (int, int) {
	probes := 1
	if it.admissible(hi, i, t, soft) {
		return hi, probes
	}
	lo, up, chosen := 0, hi-1, -1
	for lo <= up {
		probes++
		mid := int(uint(lo+up) >> 1)
		if it.admissible(mid, i, t, soft) {
			chosen = mid
			lo = mid + 1
		} else {
			up = mid - 1
		}
	}
	return chosen, probes
}

// MinFeasibleBudget returns the smallest budget admitting the whole
// cycle at qmin under worst-case times.
func (it *IterativeTables) MinFeasibleBudget() Cycles {
	return it.bodySumWcMin.MulSat(Cycles(it.iters))
}
