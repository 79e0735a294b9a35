package core

// Fuzz targets for the saturating Cycles arithmetic (differential
// against a math/big reference) and for Controller.Retarget (a
// hard-mode controller re-targeted through any sequence of displaced
// deadline families never accepts one that makes minimal quality
// infeasible, and never misses a deadline under worst-case times).
//
// Run the full targets with e.g.
//
//	go test ./internal/core -fuzz=FuzzAddSat -fuzztime=30s

import (
	"math"
	"math/big"
	"testing"
)

var (
	bigInf    = big.NewInt(int64(Inf))
	bigNegInf = big.NewInt(int64(NegInf))
)

// clampBig maps an exact big.Int result into the closed saturating
// domain [NegInf, Inf].
func clampBig(v *big.Int) Cycles {
	if v.Cmp(bigInf) >= 0 {
		return Inf
	}
	if v.Cmp(bigNegInf) <= 0 {
		return NegInf
	}
	return Cycles(v.Int64())
}

// The reference models restate the documented contract: operands first
// normalise into [NegInf, Inf]; the sentinels propagate by the rules on
// AddSat/SubSat/MulSat; finite/finite falls through to exact big.Int
// arithmetic clamped into the domain.

func refAdd(a, b Cycles) Cycles {
	if a.IsInf() || b.IsInf() {
		return Inf
	}
	a, b = a.norm(), b.norm()
	if a.IsNegInf() || b.IsNegInf() {
		return NegInf
	}
	return clampBig(new(big.Int).Add(big.NewInt(int64(a)), big.NewInt(int64(b))))
}

func refSub(a, b Cycles) Cycles {
	if a.IsInf() {
		return Inf
	}
	a, b = a.norm(), b.norm()
	if b.IsInf() || a.IsNegInf() {
		return NegInf
	}
	if b.IsNegInf() {
		return Inf
	}
	return clampBig(new(big.Int).Sub(big.NewInt(int64(a)), big.NewInt(int64(b))))
}

func refMul(a, b Cycles) Cycles {
	if a == 0 || b == 0 {
		return 0
	}
	a, b = a.norm(), b.norm()
	neg := (a < 0) != (b < 0)
	if a.IsInf() || b.IsInf() || a.IsNegInf() || b.IsNegInf() {
		if neg {
			return NegInf
		}
		return Inf
	}
	return clampBig(new(big.Int).Mul(big.NewInt(int64(a)), big.NewInt(int64(b))))
}

// fuzzSeeds are the corner values every arithmetic target starts from,
// with the fast-path boundary pairs appended.
var fuzzSeeds = append([][2]int64{
	{0, 0},
	{1, -1},
	{int64(Inf), 5},
	{5, int64(Inf)},
	{int64(NegInf), int64(NegInf)},
	{int64(Inf), int64(NegInf)},
	{math.MinInt64, 1},
	{math.MaxInt64 - 1, 1},
	{-(math.MaxInt64 - 1), -2},
	{3037000500, 3037000500},
	{1 << 32, 1 << 31},
}, fastPathSeeds()...)

// fastPathSeeds straddle the split between the in-line fast path of
// AddSat and SubSat, operands in [−2⁶¹, 2⁶¹), and their out-of-line
// helpers: ±2⁶¹ and ±(2⁶¹−1) against each other and against Inf,
// NegInf and math.MinInt64, and pairs whose sum or difference reaches
// ±2⁶².
func fastPathSeeds() [][2]int64 {
	const b = 1 << 61
	edges := []int64{b, b - 1, -b, -(b - 1)}
	var out [][2]int64
	for _, x := range edges {
		for _, y := range edges {
			out = append(out, [2]int64{x, y})
		}
		for _, y := range []int64{int64(Inf), int64(NegInf), math.MinInt64} {
			out = append(out, [2]int64{x, y}, [2]int64{y, x})
		}
	}
	return append(out,
		[2]int64{b - 1, b + 1}, [2]int64{-(b - 1), -(b + 1)},
		[2]int64{2 * b, 0}, [2]int64{-2 * b, 0},
		[2]int64{2*b - 1, 1}, [2]int64{-2 * b, -1}, [2]int64{-2 * b, -2 * b},
	)
}

func checkDomain(t *testing.T, op string, a, b, got Cycles) {
	t.Helper()
	if got < NegInf || got > Inf {
		t.Fatalf("%s(%d, %d) = %d escapes [NegInf, Inf]", op, int64(a), int64(b), int64(got))
	}
}

func FuzzAddSat(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, x, y int64) {
		a, b := Cycles(x), Cycles(y)
		got := a.AddSat(b)
		if want := refAdd(a, b); got != want {
			t.Fatalf("AddSat(%d, %d) = %d, want %d", x, y, int64(got), int64(want))
		}
		checkDomain(t, "AddSat", a, b, got)
		if sym := b.AddSat(a); sym != got {
			t.Fatalf("AddSat not commutative: (%d,%d) %d vs %d", x, y, int64(got), int64(sym))
		}
	})
}

func FuzzSubSat(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, x, y int64) {
		a, b := Cycles(x), Cycles(y)
		got := a.SubSat(b)
		if want := refSub(a, b); got != want {
			t.Fatalf("SubSat(%d, %d) = %d, want %d", x, y, int64(got), int64(want))
		}
		checkDomain(t, "SubSat", a, b, got)
	})
}

func FuzzMulSat(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, x, y int64) {
		a, b := Cycles(x), Cycles(y)
		got := a.MulSat(b)
		if want := refMul(a, b); got != want {
			t.Fatalf("MulSat(%d, %d) = %d, want %d", x, y, int64(got), int64(want))
		}
		checkDomain(t, "MulSat", a, b, got)
		if sym := b.MulSat(a); sym != got {
			t.Fatalf("MulSat not commutative: (%d,%d) %d vs %d", x, y, int64(got), int64(sym))
		}
	})
}

// shiftFuzzSystem is a small fixed 3-action chain with 2 levels and
// finite deadlines, feasible at qmin: WcQminSlack[0] is finite, so a
// displaced family's feasibility is non-trivial.
func shiftFuzzSystem() *System {
	b := NewGraphBuilder()
	b.AddAction("a")
	b.AddAction("b")
	b.AddAction("c")
	b.AddEdge("a", "b")
	b.AddEdge("b", "c")
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	levels := NewLevelRange(0, 1)
	cav := NewTimeFamily(levels, 3, 0)
	cwc := NewTimeFamily(levels, 3, 0)
	d := NewTimeFamily(levels, 3, Inf)
	for a := ActionID(0); a < 3; a++ {
		cav.Set(0, a, 10)
		cwc.Set(0, a, 20)
		cav.Set(1, a, 15)
		cwc.Set(1, a, 40)
	}
	for _, q := range levels {
		d.Set(q, 2, 100) // end-of-cycle budget; qmin worst case is 60
	}
	sys, err := NewSystem(g, levels, cav, cwc, d)
	if err != nil {
		panic(err)
	}
	return sys
}

// FuzzShiftRetarget drives a hard-mode table controller through an
// arbitrary sequence of Retargets, each to the current deadline family
// with every finite entry displaced by a decoded delta (a budget that
// grows or shrinks; saturated entries become +Inf). On every Retarget:
// a rejected family leaves the controller untouched (program, deadlines
// and position); an accepted one installs exactly that family at a
// cycle start, keeps minimal quality feasible (WcQminSlack[0] >= 0)
// and runs a worst-case cycle with no miss and no fallback. A Retarget
// mid-cycle is rejected.
func FuzzShiftRetarget(f *testing.F) {
	f.Add([]byte{0, 10, 255})
	f.Add([]byte{0x80, 0x80, 0x80, 0x7F})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		sys := shiftFuzzSystem()
		c, err := NewController(sys, WithMode(Hard))
		if err != nil {
			t.Fatalf("NewController: %v", err)
		}
		worst := func(a ActionID, q Level) Cycles { return sys.Cwc.At(q, a) }
		for i, op := range ops {
			if i > 64 {
				break
			}
			// Decode a signed delta spanning the whole saturating
			// range: small steps, huge steps, and the sentinels.
			var delta Cycles
			switch op % 5 {
			case 0:
				delta = Cycles(int64(op)) * 7
			case 1:
				delta = -Cycles(int64(op)) * 7
			case 2:
				delta = Inf / 2
			case 3:
				delta = NegInf / 2
			case 4:
				delta = Inf
			}
			nd := c.System().D.Clone()
			for _, q := range nd.Levels {
				for a := ActionID(0); int(a) < len(nd.Fns[0]); a++ {
					if dl := nd.At(q, a); !dl.IsInf() {
						nd.Set(q, a, dl.AddSat(delta))
					}
				}
			}
			if op%7 == 0 {
				// Mid-cycle: one action done, so Retarget must refuse.
				c.Reset()
				d, err := c.Next()
				if err != nil {
					t.Fatal(err)
				}
				c.Completed(worst(d.Action, d.Level))
				prog := c.Program()
				if err := c.Retarget(nd); err == nil {
					t.Fatal("mid-cycle Retarget accepted")
				}
				if c.Program() != prog || c.Position() != 1 {
					t.Fatal("rejected mid-cycle Retarget mutated the controller")
				}
				if _, err := c.RunCycle(worst); err != nil {
					t.Fatal(err)
				}
			}
			prog, prevD, pos := c.Program(), c.System().D, c.Position()
			if err := c.Retarget(nd); err != nil {
				// A family that leaves no feasible schedule at qmin is
				// rejected; the controller must be untouched.
				if c.Program() != prog || c.System().D != prevD || c.Position() != pos {
					t.Fatalf("failed Retarget(%v) mutated the controller", delta)
				}
				continue
			}
			if c.System().D != nd || c.Program() == prog || c.Position() != 0 || c.Elapsed() != 0 {
				t.Fatalf("Retarget(%v) did not install the family at a cycle start", delta)
			}
			if tb := c.Program().Evaluator().(*Tables); tb.WcQminSlack[0] < 0 {
				t.Fatalf("hard-mode admissibility violated: qmin slack %v", tb.WcQminSlack[0])
			}
			res, err := c.RunCycle(worst)
			if err != nil {
				t.Fatal(err)
			}
			if res.Misses != 0 || res.Fallbacks != 0 {
				t.Fatalf("worst-case cycle after Retarget(%v): %d misses, %d fallbacks", delta, res.Misses, res.Fallbacks)
			}
		}
	})
}
