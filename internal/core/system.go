package core

import (
	"errors"
	"fmt"
)

// System is a parameterized real-time system (Definition 2.3): a
// precedence graph, a finite ordered set of quality levels Q, families of
// average and worst-case execution time functions {Cav_q} and {Cwc_q}
// (non-decreasing in q, with Cav_q ≤ Cwc_q), and a family of deadline
// functions {D_q}.
type System struct {
	Graph  *Graph
	Levels LevelSet
	Cav    *TimeFamily
	Cwc    *TimeFamily
	D      *TimeFamily
	// Soft, when non-nil, marks actions whose deadlines are soft: the
	// Quality Manager applies only the average constraint to them (the
	// paper's mixed hard/soft case). A missed soft deadline degrades
	// quality of service but is not a safety violation; the worst-case
	// (safety) constraint considers hard deadlines only. Nil means all
	// deadlines are hard.
	Soft []bool
}

// NewSystem assembles and validates a parameterized system.
func NewSystem(g *Graph, levels LevelSet, cav, cwc, d *TimeFamily) (*System, error) {
	s := &System{Graph: g, Levels: levels, Cav: cav, Cwc: cwc, D: d}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewIteratedSystem assembles the system whose cycle is n chained
// iterations of body (Graph.Unroll(n, true); body itself when n is 1)
// from body-sized parameters: every iteration takes the body's execution
// times and soft marks, and only the last takes its deadlines (the
// end-of-cycle convention). The families and mask passed in are not
// kept when n > 1. Validate runs on the body, whose checks the tiled
// system passes exactly when the body does, so an error names a body
// action.
func NewIteratedSystem(body *Graph, n int, levels LevelSet, cav, cwc, d *TimeFamily, soft []bool) (*System, error) {
	s := &System{Graph: body, Levels: levels, Cav: cav, Cwc: cwc, D: d, Soft: soft}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if n > 1 {
		g, err := body.Unroll(n, true)
		if err != nil {
			return nil, err
		}
		s.Graph = g
		s.Cav, s.Cwc, s.D = cav.Tile(n, 0, 0), cwc.Tile(n, 0, 0), d.Tile(n, n-1, Inf)
		if soft != nil {
			s.Soft = make([]bool, 0, n*len(soft))
			for k := 0; k < n; k++ {
				s.Soft = append(s.Soft, soft...)
			}
		}
	}
	return s, nil
}

// Validate checks the structural well-formedness conditions of
// Definition 2.3. It does not check schedulability; use FeasibleAtQmin
// for the controller's precondition.
func (s *System) Validate() error {
	if s.Graph == nil {
		return errors.New("core: system has no graph")
	}
	if !s.Levels.Valid() {
		return fmt.Errorf("core: invalid level set %v", s.Levels)
	}
	n := s.Graph.Len()
	for f, fam := range [...]*TimeFamily{s.Cav, s.Cwc, s.D} {
		name := [...]string{"Cav", "Cwc", "D"}[f]
		if fam == nil {
			return fmt.Errorf("core: system missing %s family", name)
		}
		if len(fam.Levels) != len(s.Levels) {
			return fmt.Errorf("core: %s family has %d levels, system has %d", name, len(fam.Levels), len(s.Levels))
		}
		for i, q := range s.Levels {
			if fam.Levels[i] != q {
				return fmt.Errorf("core: %s family level mismatch at %d: %d vs %d", name, i, fam.Levels[i], q)
			}
			if len(fam.Fns[i]) != n {
				return fmt.Errorf("core: %s family at level %d sized for %d actions, graph has %d", name, q, len(fam.Fns[i]), n)
			}
		}
	}
	for i := range s.Levels {
		for a := 0; a < n; a++ {
			av, wc := s.Cav.Fns[i][a], s.Cwc.Fns[i][a]
			if av < 0 || wc < 0 {
				return fmt.Errorf("core: negative execution time for %q at level %d", s.Graph.Name(ActionID(a)), s.Levels[i])
			}
			if av.IsInf() && !wc.IsInf() {
				return fmt.Errorf("core: Cav=+inf but Cwc finite for %q at level %d", s.Graph.Name(ActionID(a)), s.Levels[i])
			}
			if !wc.IsInf() && av > wc {
				return fmt.Errorf("core: Cav(%d) > Cwc(%d) for %q at level %d", av, wc, s.Graph.Name(ActionID(a)), s.Levels[i])
			}
		}
	}
	if !s.Cav.NonDecreasing() {
		return errors.New("core: Cav is not non-decreasing in quality")
	}
	if !s.Cwc.NonDecreasing() {
		return errors.New("core: Cwc is not non-decreasing in quality")
	}
	if s.Soft != nil && len(s.Soft) != n {
		return fmt.Errorf("core: Soft mask has %d entries, graph has %d actions", len(s.Soft), n)
	}
	return nil
}

// IsSoft reports whether action a's deadline is soft.
func (s *System) IsSoft(a ActionID) bool {
	return s.Soft != nil && s.Soft[a]
}

// HardDeadlines returns the deadline function at level index qi with
// soft deadlines replaced by +Inf — the function the safety (worst
// case) constraint evaluates against.
func (s *System) HardDeadlines(qi int) TimeFn {
	d := s.D.AtIndex(qi)
	if s.Soft == nil {
		return d
	}
	out := d.Clone()
	for a, soft := range s.Soft {
		if soft {
			out[a] = Inf
		}
	}
	return out
}

// QMin returns the minimal quality level of the system.
func (s *System) QMin() Level { return s.Levels.Min() }

// QMax returns the maximal quality level of the system.
func (s *System) QMax() Level { return s.Levels.Max() }

// FeasibleAtQmin reports whether the EDF schedule at the minimal quality
// level is feasible with respect to Cwc_qmin and the *hard* deadlines of
// D_qmin. This is the precondition of the control problem: if it holds,
// the controller guarantees no hard-deadline miss for any actual
// C ≤ Cwc_θ (Proposition 2.1). Soft deadlines do not gate hard control.
func (s *System) FeasibleAtQmin() bool {
	cwc := s.Cwc.AtIndex(0)
	d := s.HardDeadlines(0)
	alpha := EDFSchedule(s.Graph, cwc, d)
	return Feasible(alpha, cwc, d)
}
