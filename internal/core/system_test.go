package core

import "testing"

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
