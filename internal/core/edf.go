package core

import "container/heap"

// This file implements Best_Sched: EDF scheduling over a precedence
// graph. For a single processor with precedence constraints, EDF on
// *modified* deadlines (Chetto–Blazewicz–Chetto) is optimal: if any
// feasible schedule exists, the EDF schedule on modified deadlines is
// feasible.

// ModifiedDeadlines returns D*(a) = min(D(a), min over successors s of
// D*(s) − C(s)). Scheduling by earliest D* respects precedence pressure:
// an action inherits urgency from its successors.
func ModifiedDeadlines(g *Graph, c, d TimeFn) TimeFn {
	out := d.Clone()
	topo := g.topo
	for i := len(topo) - 1; i >= 0; i-- {
		a := topo[i]
		for _, s := range g.succs[a] {
			if cand := out[s].SubSat(c[s]); cand < out[a] {
				out[a] = cand
			}
		}
	}
	return out
}

// edfHeap is a min-heap of ready actions ordered by modified deadline,
// with ActionID as a deterministic tie-break.
type edfHeap struct {
	ids   []ActionID
	dstar TimeFn
}

func (h *edfHeap) Len() int { return len(h.ids) }
func (h *edfHeap) Less(i, j int) bool {
	a, b := h.ids[i], h.ids[j]
	if h.dstar[a] != h.dstar[b] {
		return h.dstar[a] < h.dstar[b]
	}
	return a < b
}
func (h *edfHeap) Swap(i, j int)      { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *edfHeap) Push(x interface{}) { h.ids = append(h.ids, x.(ActionID)) }
func (h *edfHeap) Pop() interface{} {
	old := h.ids
	n := len(old)
	x := old[n-1]
	h.ids = old[:n-1]
	return x
}

// EDFSchedule returns the EDF schedule of g for execution times c and
// deadlines d: repeatedly run the ready action with the earliest modified
// deadline (ties broken by ActionID for determinism). The result is
// always a valid schedule of g; it is feasible iff some feasible
// schedule exists.
func EDFSchedule(g *Graph, c, d TimeFn) []ActionID {
	return EDFCompleteFrom(g, c, d, nil)
}

// EDFScheduleUnmodified schedules by earliest *raw* deadline among ready
// actions, without the Chetto–Blazewicz modification. It always yields a
// valid schedule, but unlike EDFSchedule it is not optimal under
// precedence: an urgent successor cannot pull its unconstrained
// predecessor forward. Kept as the ablation for the deadline-
// modification design choice (see edf_test.go for a witness).
func EDFScheduleUnmodified(g *Graph, d TimeFn) []ActionID {
	return edfFrom(g, d, nil)
}

// EDFCompleteFrom extends the execution sequence prefix into a complete
// schedule of g by EDF on modified deadlines. The prefix actions keep
// their positions; remaining actions are ordered by earliest modified
// deadline among ready actions. This realises the Scheduler's
// Best_Sched(α, θ_q, i): a schedule sharing the first i elements with α.
// The prefix must be a valid execution sequence of g. Runs in
// O(E + n log n).
func EDFCompleteFrom(g *Graph, c, d TimeFn, prefix []ActionID) []ActionID {
	return edfFrom(g, ModifiedDeadlines(g, c, d), prefix)
}

// edfFrom is the shared EDF engine: list scheduling by the given
// priority deadlines dstar.
func edfFrom(g *Graph, dstar TimeFn, prefix []ActionID) []ActionID {
	n := g.Len()
	done := make([]bool, n)
	remainingPreds := make([]int, n)
	for a := 0; a < n; a++ {
		remainingPreds[a] = len(g.preds[a])
	}
	out := make([]ActionID, 0, n)
	h := &edfHeap{dstar: dstar, ids: make([]ActionID, 0, n)}
	inHeap := make([]bool, n)
	release := func(a ActionID) {
		if !done[a] && !inHeap[a] && remainingPreds[a] == 0 {
			inHeap[a] = true
			heap.Push(h, a)
		}
	}
	run := func(a ActionID) {
		done[a] = true
		out = append(out, a)
		for _, s := range g.succs[a] {
			remainingPreds[s]--
			release(s)
		}
	}
	for _, a := range prefix {
		run(a)
	}
	for a := 0; a < n; a++ {
		release(ActionID(a))
	}
	for len(out) < n {
		if h.Len() == 0 {
			// Unreachable for acyclic graphs with a valid prefix.
			panic("core: EDF found no ready action in acyclic graph")
		}
		a := heap.Pop(h).(ActionID)
		if done[a] {
			continue
		}
		run(a)
	}
	return out
}

// BestSched computes the Scheduler's step: given the current schedule
// alpha, a candidate assignment asg, and the number i of already
// executed actions, it returns a schedule that agrees with alpha on the
// first i positions and orders the rest by EDF under Cwc_θ and D_θ.
func BestSched(s *System, alpha []ActionID, asg Assignment, i int) []ActionID {
	c := s.Cwc.ForAssignment(asg)
	d := s.D.ForAssignment(asg)
	return EDFCompleteFrom(s.Graph, c, d, alpha[:i])
}
