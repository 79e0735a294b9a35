package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSystemValidate(t *testing.T) {
	sys := tinySystem(t)
	if err := sys.Validate(); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
}

func TestSystemValidateCatchesCavAboveCwc(t *testing.T) {
	sys := tinySystem(t)
	bad := *sys
	cav := NewTimeFamily(sys.Levels, 2, 0)
	cwc := NewTimeFamily(sys.Levels, 2, 0)
	for a := ActionID(0); a < 2; a++ {
		for _, q := range sys.Levels {
			cav.Set(q, a, 100)
			cwc.Set(q, a, 50)
		}
	}
	bad.Cav, bad.Cwc = cav, cwc
	if err := bad.Validate(); err == nil {
		t.Fatal("Cav > Cwc accepted")
	}
}

func TestSystemValidateCatchesDecreasing(t *testing.T) {
	sys := tinySystem(t)
	bad := *sys
	cav := NewTimeFamily(sys.Levels, 2, 0)
	cwc := NewTimeFamily(sys.Levels, 2, 0)
	for a := ActionID(0); a < 2; a++ {
		cav.Set(0, a, 30)
		cav.Set(1, a, 10) // decreasing in q
		cwc.Set(0, a, 40)
		cwc.Set(1, a, 40)
	}
	bad.Cav, bad.Cwc = cav, cwc
	if err := bad.Validate(); err == nil {
		t.Fatal("decreasing Cav accepted")
	}
}

func TestSystemValidateCatchesNegative(t *testing.T) {
	sys := tinySystem(t)
	bad := *sys
	cav := NewTimeFamily(sys.Levels, 2, 0)
	cav.Set(0, 0, -5)
	bad.Cav = cav
	if err := bad.Validate(); err == nil {
		t.Fatal("negative time accepted")
	}
}

func TestSystemValidateCatchesSizeMismatch(t *testing.T) {
	sys := tinySystem(t)
	bad := *sys
	bad.Cav = NewTimeFamily(sys.Levels, 3, 0) // 3 actions, graph has 2
	if err := bad.Validate(); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestSystemValidateCatchesLevelMismatch(t *testing.T) {
	sys := tinySystem(t)
	bad := *sys
	bad.Cav = NewTimeFamily(NewLevelRange(0, 3), 2, 0)
	if err := bad.Validate(); err == nil {
		t.Fatal("level count mismatch accepted")
	}
}

func TestFeasibleAtQmin(t *testing.T) {
	sys := tinySystem(t)
	if !sys.FeasibleAtQmin() {
		t.Fatal("tiny system should be feasible at qmin (40 <= 100)")
	}
	tight := *sys
	tight.D = NewTimeFamily(sys.Levels, 2, 39)
	if tight.FeasibleAtQmin() {
		t.Fatal("39-cycle budget cannot fit 40 cycles of qmin worst case")
	}
}

func TestUniformDeadlines(t *testing.T) {
	sys := tinySystem(t)
	if !sys.UniformDeadlines() {
		t.Fatal("identical deadlines across levels should be uniform")
	}
	// Order flip between levels.
	d := NewTimeFamily(sys.Levels, 2, 0)
	d.Set(0, 0, 50)
	d.Set(0, 1, 100)
	d.Set(1, 0, 100)
	d.Set(1, 1, 50)
	ns := *sys
	ns.D = d
	if ns.UniformDeadlines() {
		t.Fatal("order flip not detected")
	}
	// Tie at qmin broken at higher level is also a change of order.
	d2 := NewTimeFamily(sys.Levels, 2, 0)
	d2.Set(0, 0, 50)
	d2.Set(0, 1, 50)
	d2.Set(1, 0, 40)
	d2.Set(1, 1, 60)
	ns2 := *sys
	ns2.D = d2
	if ns2.UniformDeadlines() {
		t.Fatal("tie split not detected")
	}
	// Same order with different values is uniform.
	d3 := NewTimeFamily(sys.Levels, 2, 0)
	d3.Set(0, 0, 50)
	d3.Set(0, 1, 100)
	d3.Set(1, 0, 60)
	d3.Set(1, 1, 110)
	ns3 := *sys
	ns3.D = d3
	if !ns3.UniformDeadlines() {
		t.Fatal("order-preserving deadline scaling rejected")
	}
}

// Cross-check the fast UniformDeadlines against the O(n^2) definition.
func TestPropertyUniformDeadlinesMatchesDefinition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		nl := 2 + r.Intn(3)
		levels := NewLevelRange(0, Level(nl-1))
		g := randomDAG(r, n, 0.2)
		cav := NewTimeFamily(levels, n, 1)
		cwc := NewTimeFamily(levels, n, 1)
		d := NewTimeFamily(levels, n, 0)
		for a := 0; a < n; a++ {
			for _, q := range levels {
				d.Set(q, ActionID(a), Cycles(r.Intn(6))) // small range forces collisions
			}
		}
		sys := &System{Graph: g, Levels: levels, Cav: cav, Cwc: cwc, D: d}
		want := uniformDeadlinesNaive(sys)
		return sys.UniformDeadlines() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func uniformDeadlinesNaive(s *System) bool {
	n := s.Graph.Len()
	sign := func(a, b Cycles) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			s0 := sign(s.D.Fns[0][a], s.D.Fns[0][b])
			for i := 1; i < len(s.Levels); i++ {
				if sign(s.D.Fns[i][a], s.D.Fns[i][b]) != s0 {
					return false
				}
			}
		}
	}
	return true
}

func TestModeString(t *testing.T) {
	if Hard.String() != "hard" || Soft.String() != "soft" {
		t.Fatal("Mode.String wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should still render")
	}
}

// TestSystemValidateNamesFamiliesInOrder checks Cav, Cwc and D in that
// order, so a system with two malformed families is always reported by
// the first of them.
func TestSystemValidateNamesFamiliesInOrder(t *testing.T) {
	sys := tinySystem(t)
	bad := *sys
	bad.Cwc, bad.D = nil, nil
	for i := 0; i < 100; i++ {
		if err := bad.Validate(); err == nil || err.Error() != "core: system missing Cwc family" {
			t.Fatalf("run %d: %v, want the missing Cwc family", i, err)
		}
	}
}
