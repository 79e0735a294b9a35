package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCyclesSaturation(t *testing.T) {
	cases := []struct {
		a, b, want Cycles
		op         string
	}{
		{10, 5, 15, "add"},
		{Inf, 5, Inf, "add"},
		{5, Inf, Inf, "add"},
		{Inf, Inf, Inf, "add"},
		{Inf - 1, 10, Inf, "add"}, // overflow saturates
		{10, 4, 6, "sub"},
		{Inf, 4, Inf, "sub"},
		{4, 10, -6, "sub"},
	}
	for _, tc := range cases {
		var got Cycles
		switch tc.op {
		case "add":
			got = tc.a.AddSat(tc.b)
		case "sub":
			got = tc.a.SubSat(tc.b)
		}
		if got != tc.want {
			t.Errorf("%v %s %v = %v, want %v", tc.a, tc.op, tc.b, got, tc.want)
		}
	}
}

func TestCyclesString(t *testing.T) {
	if Inf.String() != "+inf" {
		t.Errorf("Inf.String() = %q", Inf.String())
	}
	if Cycles(42).String() != "42" {
		t.Errorf("Cycles(42).String() = %q", Cycles(42).String())
	}
}

func TestMinCycles(t *testing.T) {
	if MinCycles(3, 7) != 3 || MinCycles(7, 3) != 3 || MinCycles(Inf, 3) != 3 {
		t.Fatal("MinCycles wrong")
	}
}

func TestLevelSet(t *testing.T) {
	s := NewLevelRange(0, 7)
	if len(s) != 8 || s.Min() != 0 || s.Max() != 7 {
		t.Fatalf("NewLevelRange(0,7) = %v", s)
	}
	if !s.Valid() {
		t.Fatal("range set should be valid")
	}
	if s.Index(5) != 5 || s.Index(9) != -1 {
		t.Fatal("Index wrong")
	}
	if !s.Contains(0) || s.Contains(8) {
		t.Fatal("Contains wrong")
	}
	if NewLevelRange(3, 1) != nil {
		t.Fatal("inverted range should be nil")
	}
	if (LevelSet{}).Valid() {
		t.Fatal("empty set should be invalid")
	}
	if (LevelSet{2, 2}).Valid() {
		t.Fatal("non-strict set should be invalid")
	}
}

func TestTimeFnSum(t *testing.T) {
	f := TimeFn{10, 20, Inf}
	if got := f.Sum([]ActionID{0, 1}); got != 30 {
		t.Errorf("Sum = %v, want 30", got)
	}
	if got := f.Sum([]ActionID{0, 2}); !got.IsInf() {
		t.Errorf("Sum with Inf = %v, want Inf", got)
	}
	if got := f.Sum(nil); got != 0 {
		t.Errorf("empty Sum = %v, want 0", got)
	}
}

func TestTimeFamilyAccessors(t *testing.T) {
	levels := NewLevelRange(0, 2)
	fam := NewTimeFamily(levels, 3, 5)
	if fam.At(1, 2) != 5 {
		t.Fatal("initial value wrong")
	}
	fam.Set(2, 1, 99)
	if fam.At(2, 1) != 99 {
		t.Fatal("Set/At roundtrip failed")
	}
	fam.SetAll(0, 7)
	for _, q := range levels {
		if fam.At(q, 0) != 7 {
			t.Fatal("SetAll failed")
		}
	}
}

func TestTimeFamilyPanicsOnUnknownLevel(t *testing.T) {
	fam := NewTimeFamily(NewLevelRange(0, 1), 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("At with unknown level did not panic")
		}
	}()
	fam.At(9, 0)
}

// scanIndex is the linear scan LevelSet.Index answered with before its
// O(1) offset lookup: the oracle of TestLevelSetIndexMatchesScan.
func scanIndex(s LevelSet, q Level) int {
	for i, v := range s {
		if v == q {
			return i
		}
	}
	return -1
}

// onFastPath reports whether Index answers q from the offset q−s[0]
// without scanning.
func onFastPath(s LevelSet, q Level) bool {
	i := int(q - s[0])
	return i >= 0 && i < len(s) && s[i] == q
}

// indexTestSets are Valid level sets for the lookup tests: contiguous
// ranges with zero, positive and negative lows, and non-contiguous sets
// whose members partly or wholly miss the offset lookup.
var indexTestSets = []LevelSet{
	{0},
	{7},
	NewLevelRange(0, 7),
	NewLevelRange(3, 9),
	NewLevelRange(-4, 2),
	{0, 2, 5},
	{-3, 1, 9},
	{0, 1, 2, 6, 7},
	{-10, -9, -2},
	{math.MinInt + 1, 0, math.MaxInt},
}

// TestLevelSetIndexMatchesScan holds Index to the linear scan on Valid
// sets, fixed and random, for every member and for levels below,
// between and above them (which must give -1).
func TestLevelSetIndexMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	sets := append([]LevelSet(nil), indexTestSets...)
	for k := 0; k < 200; k++ {
		// A random strictly ascending set: a low in [-20, 20] and gaps
		// of 1 to 3, so contiguous runs and holes both occur.
		s := LevelSet{Level(r.Intn(41) - 20)}
		for n := r.Intn(8); n > 0; n-- {
			s = append(s, s[len(s)-1]+Level(1+r.Intn(3)))
		}
		sets = append(sets, s)
	}
	var fast, slow, absent int
	for _, s := range sets {
		if !s.Valid() {
			t.Fatalf("test set %v is not Valid", s)
		}
		probes := []Level{math.MinInt, math.MaxInt, s.Min() - 1, s.Max() + 1, s.Min() - 100, s.Max() + 100}
		for _, v := range s {
			probes = append(probes, v-1, v, v+1)
		}
		for _, q := range probes {
			got, want := s.Index(q), scanIndex(s, q)
			if got != want {
				t.Errorf("%v.Index(%d) = %d, scan gives %d", s, q, got, want)
			}
			if got := s.Contains(q); got != (want >= 0) {
				t.Errorf("%v.Contains(%d) = %v, want %v", s, q, got, want >= 0)
			}
			switch {
			case want < 0:
				absent++
			case onFastPath(s, q):
				fast++
			default:
				slow++
			}
		}
	}
	if fast == 0 || slow == 0 || absent == 0 {
		t.Fatalf("lookups on the fast path %d, scanned %d, absent %d: want all three exercised", fast, slow, absent)
	}
	for _, tc := range []struct {
		s    LevelSet
		q    Level
		want int
	}{
		{LevelSet{0, 2, 5}, 2, 1},
		{LevelSet{0, 2, 5}, 5, 2},
		{LevelSet{0, 2, 5}, 1, -1},
		{LevelSet{0, 2, 5}, 3, -1},
		{LevelSet{0, 2, 5}, 6, -1},
		{LevelSet{0, 2, 5}, -1, -1},
		{LevelSet{-3, 1, 9}, -3, 0},
		{LevelSet{-3, 1, 9}, 1, 1},
		{LevelSet{-3, 1, 9}, 9, 2},
		{LevelSet{-3, 1, 9}, -1, -1},
		{LevelSet{-3, 1, 9}, -4, -1},
		{LevelSet{-3, 1, 9}, 10, -1},
		{NewLevelRange(-4, 2), -4, 0},
		{NewLevelRange(-4, 2), 2, 6},
		{NewLevelRange(-4, 2), 3, -1},
		{LevelSet{}, 0, -1},
	} {
		if got := tc.s.Index(tc.q); got != tc.want {
			t.Errorf("%v.Index(%d) = %d, want %d", tc.s, tc.q, got, tc.want)
		}
	}
}

// TestTimeFamilyAtFastAndSlowPaths checks that At and Set reach the same
// function on both lookup paths: every entry holds a value unique to
// its level index and action.
func TestTimeFamilyAtFastAndSlowPaths(t *testing.T) {
	const n = 3
	var fast, slow int
	for _, levels := range indexTestSets {
		fam := NewTimeFamily(levels, n, 0)
		for i := range fam.Fns {
			for a := range fam.Fns[i] {
				fam.Fns[i][a] = Cycles(100*i + a)
			}
		}
		for i, q := range levels {
			if onFastPath(levels, q) {
				fast++
			} else {
				slow++
			}
			for a := ActionID(0); a < n; a++ {
				if got, want := fam.At(q, a), Cycles(100*i+int(a)); got != want {
					t.Errorf("levels %v: At(%d, %d) = %v, want %v", levels, q, a, got, want)
				}
				fam.Set(q, a, -Cycles(100*i+int(a)))
				if got := fam.Fns[i][a]; got != -Cycles(100*i+int(a)) {
					t.Errorf("levels %v: Set(%d, %d) wrote %v to index %d", levels, q, a, got, i)
				}
			}
		}
	}
	if fast == 0 || slow == 0 {
		t.Fatalf("levels on the fast path %d, scanned %d: want both exercised", fast, slow)
	}
}

// TestTimeFamilyAtFastPath checks which families take At's in-line
// path and that both paths read and write the right row: dense is
// len(Levels) exactly for a zero-based set built by NewTimeFamily, Tile
// or Clone, and 0 for any other set and for a struct literal.
func TestTimeFamilyAtFastPath(t *testing.T) {
	const m = 4
	for _, tc := range []struct {
		levels    LevelSet
		zeroBased bool
	}{
		{NewLevelRange(0, 7), true},
		{LevelSet{0}, true},
		{NewLevelRange(2, 9), false},
		{NewLevelRange(-3, 4), false},
		{LevelSet{0, 1, 3}, false},
		{LevelSet{0, 2, 5}, false},
		{LevelSet{-3, 1, 9}, false},
	} {
		built := NewTimeFamily(tc.levels, m, 0)
		for i, f := range built.Fns {
			for a := range f {
				f[a] = Cycles(1000*i + a + 1)
			}
		}
		literal := &TimeFamily{Levels: built.Levels, Fns: built.Clone().Fns}
		for _, fc := range []struct {
			name        string
			fam         *TimeFamily
			constructed bool
		}{
			{"NewTimeFamily", built, true},
			{"Tile", built.Tile(3, 1, 7), true},
			{"Clone", built.Clone(), true},
			{"literal", literal, false},
		} {
			fam := fc.fam
			var want uint
			if tc.zeroBased && fc.constructed {
				want = uint(len(tc.levels))
			}
			if fam.dense != want {
				t.Errorf("%s over %v: dense = %d, want %d", fc.name, tc.levels, fam.dense, want)
			}
			for _, q := range tc.levels {
				i := fam.Levels.Index(q)
				for a := range fam.Fns[i] {
					id := ActionID(a)
					if got, want := fam.At(q, id), fam.Fns[i][a]; got != want {
						t.Errorf("%s over %v: At(%d, %d) = %v, want Fns[%d][%d] = %v", fc.name, tc.levels, q, a, got, i, a, want)
					}
					v := -Cycles(1000*i + a + 1)
					fam.Set(q, id, v)
					if got := fam.At(q, id); got != v || fam.Fns[i][a] != v {
						t.Errorf("%s over %v: Set(%d, %d, %v) then At = %v, Fns[%d][%d] = %v", fc.name, tc.levels, q, a, v, got, i, a, fam.Fns[i][a])
					}
				}
			}
		}
	}
}

// TestTimeFamilyMissingLevelMessage pins the panic of At and Set for a
// level outside the set, on both lookup paths and on an empty set.
func TestTimeFamilyMissingLevelMessage(t *testing.T) {
	for _, tc := range []struct {
		levels LevelSet
		q      Level
	}{
		{NewLevelRange(0, 1), 9},
		{NewLevelRange(0, 1), -1},
		{LevelSet{0, 2, 5}, 1},
		{LevelSet{0, 2, 5}, 3},
		{LevelSet{-3, 1, 9}, 0},
		{LevelSet{}, 0},
		{nil, 4},
	} {
		fam := NewTimeFamily(tc.levels, 1, 0)
		want := fmt.Sprintf("core: level %d not in level set %v", tc.q, fam.Levels)
		for name, op := range map[string]func(){
			"At":  func() { fam.At(tc.q, 0) },
			"Set": func() { fam.Set(tc.q, 0, 1) },
		} {
			func() {
				defer func() {
					if got := recover(); got != want {
						t.Errorf("%s(%d) on %v panicked with %v, want %q", name, tc.q, tc.levels, got, want)
					}
				}()
				op()
			}()
		}
	}
}

func TestNonDecreasing(t *testing.T) {
	levels := NewLevelRange(0, 2)
	fam := NewTimeFamily(levels, 2, 0)
	fam.Set(0, 0, 10)
	fam.Set(1, 0, 20)
	fam.Set(2, 0, 20)
	fam.Set(0, 1, 5)
	fam.Set(1, 1, 5)
	fam.Set(2, 1, Inf)
	if !fam.NonDecreasing() {
		t.Fatal("non-decreasing family rejected")
	}
	fam.Set(2, 0, 15) // decrease at top level
	if fam.NonDecreasing() {
		t.Fatal("decreasing family accepted")
	}
	// Inf followed by finite is a decrease.
	fam2 := NewTimeFamily(levels, 1, 0)
	fam2.Set(0, 0, Inf)
	fam2.Set(1, 0, 5)
	fam2.Set(2, 0, 5)
	if fam2.NonDecreasing() {
		t.Fatal("Inf->finite accepted as non-decreasing")
	}
}

func TestForAssignment(t *testing.T) {
	levels := NewLevelRange(0, 1)
	fam := NewTimeFamily(levels, 2, 0)
	fam.Set(0, 0, 1)
	fam.Set(1, 0, 2)
	fam.Set(0, 1, 3)
	fam.Set(1, 1, 4)
	th := Assignment{0, 1}
	got := fam.ForAssignment(th)
	if got[0] != 1 || got[1] != 4 {
		t.Fatalf("ForAssignment = %v, want [1 4]", got)
	}
}

func TestOverrideFrom(t *testing.T) {
	alpha := []ActionID{2, 0, 1}
	th := Assignment{5, 5, 5}
	got := th.OverrideFrom(alpha, 1, 9)
	// Position 0 of alpha (action 2) keeps 5; actions 0 and 1 get 9.
	if got[2] != 5 || got[0] != 9 || got[1] != 9 {
		t.Fatalf("OverrideFrom = %v", got)
	}
	// Original untouched.
	if th[0] != 5 {
		t.Fatal("OverrideFrom mutated receiver")
	}
}

func TestPropertyAddSatCommutative(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Cycles(a), Cycles(b)
		if x < 0 {
			x = -x
		}
		if y < 0 {
			y = -y
		}
		return x.AddSat(y) == y.AddSat(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAddSatMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := Cycles(a), Cycles(b)
		return x.AddSat(y) >= x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulSat(t *testing.T) {
	cases := []struct {
		a, b, want Cycles
	}{
		{3, 4, 12},
		{-3, 4, -12},
		{3, -4, -12},
		{-3, -4, 12},
		{0, Inf, 0},
		{Inf, 0, 0},
		{0, NegInf, 0},
		{Inf, 2, Inf},
		{Inf, -2, NegInf},
		{NegInf, 3, NegInf},
		{NegInf, -3, Inf},
		{NegInf, NegInf, Inf},
		{Inf, NegInf, NegInf},
		// Overflow boundary: floor(sqrt(MaxInt64)) = 3037000499; its
		// square is finite, one more overflows.
		{3037000499, 3037000499, 3037000499 * 3037000499},
		{3037000500, 3037000500, Inf},
		{-3037000500, 3037000500, NegInf},
		{1 << 32, 1 << 31, Inf},
		{1 << 31, 1 << 31, 1 << 62},
	}
	for _, tc := range cases {
		if got := tc.a.MulSat(tc.b); got != tc.want {
			t.Errorf("%v.MulSat(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// The NegInf sentinel must be absorbing under further saturating
// arithmetic: once a slack is "never admissible", no subsequent AddSat
// or SubSat may wrap it back into the finite range. The seed's one-sided
// AddSat wrapped here (NegInf + negative overflowed past MinInt64),
// which is the bug this contract test pins down.
func TestSubSatNegInfContract(t *testing.T) {
	d := Cycles(5).SubSat(Inf)
	if d != NegInf {
		t.Fatalf("5 - Inf = %v, want NegInf", d)
	}
	if got := d.AddSat(-10); got != NegInf {
		t.Errorf("NegInf + (-10) = %v, want NegInf (wrapped?)", got)
	}
	if got := d.SubSat(3); got != NegInf {
		t.Errorf("NegInf - 3 = %v, want NegInf", got)
	}
	if got := d.SubSat(NegInf); got != NegInf {
		t.Errorf("NegInf - NegInf = %v, want NegInf (left operand wins)", got)
	}
	if got := d.AddSat(Inf); got != Inf {
		t.Errorf("NegInf + Inf = %v, want Inf (+inf dominates)", got)
	}
	if got := d.MulSat(1); got != NegInf {
		t.Errorf("NegInf * 1 = %v, want NegInf", got)
	}
	if !(d < 0) || d >= 0 {
		t.Error("NegInf must compare below zero")
	}
	if !d.IsNegInf() || d.IsInf() {
		t.Error("IsNegInf/IsInf classification wrong for NegInf")
	}
	// Near-saturated negative plus negative must clamp, not wrap.
	if got := (-(Inf - 1)).AddSat(-10); got != NegInf {
		t.Errorf("(-(Inf-1)) + (-10) = %v, want NegInf", got)
	}
	// MinInt64 entering from a cast normalises into the closed domain.
	if got := Cycles(math.MinInt64).AddSat(0); got != NegInf {
		t.Errorf("norm(MinInt64) = %v, want NegInf", got)
	}
	if got := Cycles(7).SubSat(Cycles(math.MinInt64)); got != Inf {
		t.Errorf("7 - norm(MinInt64) = %v, want Inf", got)
	}
}

// atSink keeps BenchmarkTimeFamilyAt's sums live.
var atSink Cycles

// BenchmarkTimeFamilyAt is the level-lookup layer row: one op reads
// X_θ(a) for every action of a 72-action cycle, as a cost function
// charges a cycle. dense is a zero-based level set (every .qos model),
// answered by At in line; offset is a contiguous set from 2, answered
// by at's offset check; sparse has a gap after every level, so all but
// qmin are scanned by index.
func BenchmarkTimeFamilyAt(b *testing.B) {
	const n = 72
	for _, bc := range []struct {
		name   string
		levels LevelSet
	}{
		{"dense", NewLevelRange(0, 7)},
		{"offset", NewLevelRange(2, 9)},
		{"sparse", LevelSet{0, 2, 4, 6, 8, 10, 12, 14}},
	} {
		fam := NewTimeFamily(bc.levels, n, 1)
		theta := make(Assignment, n)
		for a := range theta {
			theta[a] = bc.levels[a*3%len(bc.levels)]
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var s Cycles
			for i := 0; i < b.N; i++ {
				for a, q := range theta {
					s += fam.At(q, ActionID(a))
				}
			}
			atSink = s
		})
	}
}
