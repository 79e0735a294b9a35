package mixer

import (
	"fmt"

	"repro/internal/core"
)

// SpecFromProgram derives a stream's admission contract from its
// precomputed controller program, along the program's schedule order:
//
//   - Nominal is the largest finite deadline at qmin — the cycle's time
//     horizon the deadline family was built for.
//   - MinNeed is Nominal minus the initial slack of qmin: the latest
//     cycle start offset at which minimal quality is still admissible.
//     A share of MinNeed keeps the stream hard-safe (and fallback-free
//     under the execution contract); anything less could already miss.
//   - FullNeed is Nominal minus the initial slack of the top level: the
//     share at which the stream can open its cycle at maximal quality.
//
// In Soft mode only the average constraint speaks, so the slacks are
// taken from Qual_Const^av alone. Weight is left at the default (1);
// set it on the spec before Admit to bias the Weighted policy.
func SpecFromProgram(p *core.Program) (StreamSpec, error) {
	sys := p.System()
	alpha := p.Schedule()
	qmin := sys.D.AtIndex(0)
	var nominal core.Cycles
	for _, a := range alpha {
		if d := qmin[a]; !d.IsInf() && d > nominal {
			nominal = d
		}
	}
	if nominal <= 0 {
		return StreamSpec{}, fmt.Errorf("mixer: system has no finite positive deadline at qmin; cannot derive a budget horizon")
	}
	// A program carries the slack tables along its schedule; rebuild
	// them only for a custom evaluator (IterativeTables).
	tb, ok := p.Evaluator().(*core.Tables)
	if !ok {
		tb = core.NewTables(sys, alpha)
	}
	soft := p.Mode() == core.Soft
	minSlack := initialSlack(tb, 0, soft)
	fullSlack := initialSlack(tb, len(sys.Levels)-1, soft)
	spec := StreamSpec{
		Nominal:  nominal,
		MinNeed:  clampNeed(nominal, minSlack, 1),
		FullNeed: nominal,
	}
	spec.FullNeed = clampNeed(nominal, fullSlack, spec.MinNeed)
	return spec, spec.Validate()
}

// initialSlack is the latest elapsed time at which level index qi is
// admissible at position 0 — the stream's tolerance for a late (or
// preempted) cycle start at that level.
func initialSlack(tb *core.Tables, qi int, soft bool) core.Cycles {
	if soft {
		return tb.SlackAvAt(qi, 0)
	}
	return tb.CombinedSlackAt(qi, 0)
}

// clampNeed converts an initial slack into a share need within
// [lo, nominal]: a negative slack means the level is not even
// admissible stand-alone, so the need saturates at the full nominal
// budget.
func clampNeed(nominal, slack, lo core.Cycles) core.Cycles {
	if slack.IsInf() {
		return lo
	}
	// SubSat matters here: a NegInf slack (level unmeetable at any
	// elapsed time) must saturate the need to Inf and clamp to nominal
	// below; the raw subtraction wrapped and clamped to lo instead.
	need := nominal.SubSat(slack)
	if need < lo {
		need = lo
	}
	if need > nominal {
		need = nominal
	}
	return need
}
