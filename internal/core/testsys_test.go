package core

// Shared generators for property tests: random parameterized real-time
// systems whose qmin/worst-case EDF schedule is feasible by construction,
// so the controller's precondition (Problem statement, section 2.1)
// holds and Proposition 2.1 must apply.

import (
	"math/rand"
	"slices"
	"testing"
)

// randomSystem builds a random parameterized system over a random DAG.
// Deadlines are derived from the worst-case qmin completion times along a
// random topological order plus non-negative slack, guaranteeing
// FeasibleAtQmin. Deadlines are quality-independent (uniform order).
func randomSystem(r *rand.Rand, maxActions, maxLevels int) *System {
	n := 1 + r.Intn(maxActions)
	g := randomDAG(r, n, 0.3)
	nl := 1 + r.Intn(maxLevels)
	levels := NewLevelRange(0, Level(nl-1))

	cav := NewTimeFamily(levels, n, 0)
	cwc := NewTimeFamily(levels, n, 0)
	for a := 0; a < n; a++ {
		baseAv := Cycles(1 + r.Intn(50))
		baseWc := baseAv + Cycles(r.Intn(100))
		av, wc := baseAv, baseWc
		for qi := 0; qi < nl; qi++ {
			// Non-decreasing in q, Cav <= Cwc maintained.
			av += Cycles(r.Intn(30))
			wc += Cycles(r.Intn(60))
			if wc < av {
				wc = av
			}
			cav.Set(levels[qi], ActionID(a), av)
			cwc.Set(levels[qi], ActionID(a), wc)
		}
	}

	// Deadlines from qmin worst-case completion along a topological
	// order, plus slack; some actions get +Inf deadlines.
	d := NewTimeFamily(levels, n, Inf)
	order := g.Topo()
	var acc Cycles
	for _, a := range order {
		acc += cwc.At(levels.Min(), a)
		if r.Intn(4) == 0 {
			continue // leave +Inf
		}
		dl := acc + Cycles(r.Intn(200))
		for _, q := range levels {
			d.Set(q, a, dl)
		}
	}
	// Force at least one finite deadline so feasibility is non-trivial:
	// the last action in topological order bounds the whole cycle.
	last := order[len(order)-1]
	dl := acc + Cycles(r.Intn(200))
	for _, q := range levels {
		d.Set(q, last, dl)
	}

	sys, err := NewSystem(g, levels, cav, cwc, d)
	if err != nil {
		panic(err)
	}
	if !sys.FeasibleAtQmin() {
		panic("randomSystem generated an infeasible system")
	}
	return sys
}

// randomQualitySystem is randomSystem with each finite deadline moved
// by a per-action rate in [−40, 80) cycles per level above qmin
// (clamped at 0), so that the deadline order, and with it the EDF order,
// may change with quality. The qmin deadlines are randomSystem's, so the
// system stays feasible at qmin under worst-case times.
func randomQualitySystem(r *rand.Rand, maxActions, maxLevels int) *System {
	sys := randomSystem(r, maxActions, maxLevels)
	d := sys.D.Clone()
	for a := ActionID(0); int(a) < sys.Graph.Len(); a++ {
		rate := Cycles(r.Intn(120) - 40)
		base := d.AtIndex(0)[a]
		if base.IsInf() {
			continue
		}
		for qi, q := range sys.Levels {
			d.Set(q, a, max(base+rate*Cycles(qi), 0))
		}
	}
	out, err := NewSystem(sys.Graph, sys.Levels, sys.Cav, sys.Cwc, d)
	if err != nil {
		panic(err)
	}
	return out
}

// edfOrderDependsOnQuality reports whether the EDF order under
// worst-case times differs between qmin and some other level.
func edfOrderDependsOnQuality(sys *System) bool {
	base := EDFSchedule(sys.Graph, sys.Cwc.AtIndex(0), sys.D.AtIndex(0))
	for qi := 1; qi < len(sys.Levels); qi++ {
		if !slices.Equal(base, EDFSchedule(sys.Graph, sys.Cwc.AtIndex(qi), sys.D.AtIndex(qi))) {
			return true
		}
	}
	return false
}

// actualDraw returns an actual execution time C(a) respecting the safe
// control contract C <= Cwc_q(a). overload > 0 makes draws skew high.
func actualDraw(r *rand.Rand, sys *System, a ActionID, q Level, overload float64) Cycles {
	wc := sys.Cwc.At(q, a)
	av := sys.Cav.At(q, a)
	if wc.IsInf() {
		wc = av * 2
	}
	span := wc - av
	if span <= 0 {
		return wc
	}
	f := r.Float64()
	if overload > 0 {
		f = f*(1-overload) + overload
	}
	base := av/2 + Cycles(f*float64(wc-av/2))
	if base > wc {
		base = wc
	}
	if base < 0 {
		base = 0
	}
	return base
}

func mustController(t *testing.T, sys *System, opts ...Option) *Controller {
	t.Helper()
	c, err := NewController(sys, opts...)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return c
}

// linearScan is the linear-scan reference decision, kept as the oracle
// of the threshold engine: it wraps a table evaluator and answers
// MaxAdmissibleLevel by probing Allowed (AllowedAv in soft mode) from
// hi down, one probe per level tried.
type linearScan struct{ Evaluator }

func (s linearScan) MaxAdmissibleLevel(i, hi int, t Cycles, soft bool) (int, int) {
	probes := 0
	for qi := hi; qi >= 0; qi-- {
		probes++
		if soft && s.AllowedAv(qi, i, t) || !soft && Allowed(s.Evaluator, qi, i, t) {
			return qi, probes
		}
	}
	return -1, probes
}

// scanController builds the linear-scan reference for sys under opts:
// the evaluator and schedule order a plain table program would use,
// with every decision scanned level by level.
func scanController(t *testing.T, sys *System, opts ...Option) *Controller {
	t.Helper()
	p, err := NewProgram(sys, opts...)
	if err != nil {
		t.Fatalf("NewProgram: %v", err)
	}
	return mustController(t, sys, append(opts[:len(opts):len(opts)], WithEvaluator(linearScan{p.Evaluator()}, p.Schedule()))...)
}
