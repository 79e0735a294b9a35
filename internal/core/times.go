package core

import (
	"fmt"
	"math"
)

// Cycles counts platform CPU cycles, the paper's time unit. Deadlines and
// execution times are expressed in cycles; Inf represents +∞ (an absent
// deadline, or an unbounded execution time) and NegInf represents −∞ (a
// slack that can never be met).
//
// All arithmetic on Cycles outside this file must go through the
// saturating helpers (AddSat, SubSat, MulSat) or carry a
// //qos:overflow-ok annotation with a proven bound — enforced by
// cmd/qoslint's cyclesarith check. The helpers are total over the
// closed domain [NegInf, Inf]: they saturate at both infinities instead
// of wrapping, and they normalize the one representable int64 below the
// domain (math.MinInt64) to NegInf, so no sequence of saturating
// operations can ever re-enter the wrapping regime.
type Cycles int64

// Inf is the +∞ value for Cycles.
const Inf Cycles = math.MaxInt64

// NegInf is the −∞ value for Cycles: the saturation point of
// subtracting past the representable range, and the documented result
// of SubSat when the subtrahend is +∞. It compares below every finite
// Cycles value, and re-entering it into the saturating helpers keeps it
// pinned at −∞ (it does not wrap, unlike the raw -MaxInt64 sentinel it
// replaces).
const NegInf Cycles = -Inf

// Mcycle is one million cycles, the unit used in the paper's plots.
const Mcycle Cycles = 1_000_000

// IsInf reports whether c represents +∞.
func (c Cycles) IsInf() bool { return c == Inf }

// IsNegInf reports whether c represents −∞.
func (c Cycles) IsNegInf() bool { return c <= NegInf }

// norm maps the single representable value below the domain
// (math.MinInt64) onto NegInf so every helper is total over int64.
func (c Cycles) norm() Cycles {
	if c < NegInf {
		return NegInf
	}
	return c
}

// fastBound bounds the operands that AddSat and SubSat handle in line.
// Two operands in [−fastBound, fastBound) have a sum and a difference
// in [−2⁶², 2⁶²], far from both infinities, so the raw result is
// already the saturating one. Every real cycle count is in range; the
// infinities and the overflow cases take the out-of-line helpers.
//
// The range test shifts both operands up by fastBound, where a value in
// range lands in [0, 2·fastBound); 2·fastBound is a power of two, so
// both land there exactly when their OR does. It is written as one
// expression because a helper call would cost AddSat its inlining.
const fastBound = 1 << 61

// AddSat returns c+d, saturating at Inf and NegInf. +∞ dominates:
// Inf.AddSat(NegInf) is Inf, matching the admissibility reading where a
// +∞ bound is never binding. Operands in [−2⁶¹, 2⁶¹) take an inlined
// fast path (see fastBound).
//
//qos:hotpath
func (c Cycles) AddSat(d Cycles) Cycles {
	if uint64((c+fastBound)|(d+fastBound)) < 2*fastBound {
		return c + d
	}
	return c.addSat(d)
}

// addSat is AddSat over the whole int64 domain.
func (c Cycles) addSat(d Cycles) Cycles {
	if c.IsInf() || d.IsInf() {
		return Inf
	}
	c, d = c.norm(), d.norm()
	if c.IsNegInf() || d.IsNegInf() {
		return NegInf
	}
	s := c + d
	// Finite operands: overflow flips the sign of a same-sign sum.
	if c >= 0 && d >= 0 && s < 0 {
		return Inf
	}
	if c < 0 && d < 0 && s >= 0 {
		return NegInf
	}
	return s.norm()
}

// SubSat returns c-d, saturating at Inf and NegInf. +∞ dominates the
// minuend (Inf minus anything is Inf); a +∞ subtrahend against a
// non-infinite minuend yields NegInf — a finite value can never meet a
// +∞ cost, and the −∞ result stays pinned under further saturating
// arithmetic. Operands in [−2⁶¹, 2⁶¹) take an inlined fast path (see
// fastBound).
//
//qos:hotpath
func (c Cycles) SubSat(d Cycles) Cycles {
	if uint64((c+fastBound)|(d+fastBound)) < 2*fastBound {
		return c - d
	}
	return c.subSat(d)
}

// subSat is SubSat over the whole int64 domain.
func (c Cycles) subSat(d Cycles) Cycles {
	if c.IsInf() {
		return Inf
	}
	c, d = c.norm(), d.norm()
	if d.IsInf() || c.IsNegInf() {
		return NegInf
	}
	if d.IsNegInf() {
		return Inf
	}
	s := c - d
	// Finite operands: overflow flips the sign away from the minuend's.
	if c >= 0 && d < 0 && s < 0 {
		return Inf
	}
	if c < 0 && d >= 0 && s >= 0 {
		return NegInf
	}
	return s.norm()
}

// MulSat returns c*k, saturating at Inf and NegInf by the sign of the
// product. Zero times anything — including either infinity — is zero,
// matching the "no remaining iterations" reading of the iterative
// tables that this helper grew out of.
func (c Cycles) MulSat(k Cycles) Cycles {
	if c == 0 || k == 0 {
		return 0
	}
	c, k = c.norm(), k.norm()
	neg := (c < 0) != (k < 0)
	if c.IsInf() || k.IsInf() || c.IsNegInf() || k.IsNegInf() {
		if neg {
			return NegInf
		}
		return Inf
	}
	p := c * k
	// Finite non-zero operands, none equal to MinInt64 (norm above), so
	// the division probe is exact and safe.
	if p/k != c {
		if neg {
			return NegInf
		}
		return Inf
	}
	return p.norm()
}

// MinCycles returns the smaller of a and b.
func MinCycles(a, b Cycles) Cycles {
	if a < b {
		return a
	}
	return b
}

// String renders c in cycles, or "+inf".
func (c Cycles) String() string {
	if c.IsInf() {
		return "+inf"
	}
	return fmt.Sprintf("%d", int64(c))
}

// TimeFn maps actions to times: an execution time function C or a
// deadline function D, indexed by ActionID.
type TimeFn []Cycles

// NewTimeFn returns a TimeFn for n actions, all set to v.
func NewTimeFn(n int, v Cycles) TimeFn {
	f := make(TimeFn, n)
	if v != 0 {
		for i := range f {
			f[i] = v
		}
	}
	return f
}

// Clone returns a copy of f.
func (f TimeFn) Clone() TimeFn { return append(TimeFn(nil), f...) }

// Sum returns the saturating sum of f over the given actions.
func (f TimeFn) Sum(actions []ActionID) Cycles {
	var s Cycles
	for _, a := range actions {
		s = s.AddSat(f[a])
	}
	return s
}

// Level is a quality level. The paper's Q is a finite set of integers;
// execution times are non-decreasing in the level.
type Level int

// LevelSet is the ordered set Q of quality levels, ascending. The first
// element is qmin.
type LevelSet []Level

// NewLevelRange returns the LevelSet {lo, lo+1, ..., hi}.
func NewLevelRange(lo, hi Level) LevelSet {
	if hi < lo {
		return nil
	}
	s := make(LevelSet, hi-lo+1)
	for i := range s {
		s[i] = lo + Level(i)
	}
	return s
}

// Min returns qmin, the smallest level.
func (s LevelSet) Min() Level { return s[0] }

// Max returns the largest level.
func (s LevelSet) Max() Level { return s[len(s)-1] }

// Index returns the position of q in s, or -1. It is O(1) when q sits
// at offset q−s[0], which holds for every level of a contiguous range
// (all a .qos model can declare) and for the levels below a sparse
// set's first gap; any other q takes the linear scan. On a Valid set
// the two agree: strictly ascending levels put q nowhere but at that
// offset or after it. The scan stays in line: a call to an out-of-line
// scan would cost Index its inlining.
//
//qos:hotpath
func (s LevelSet) Index(q Level) int {
	if len(s) > 0 {
		if i := uint(q - s[0]); i < uint(len(s)) && s[i] == q {
			return int(i)
		}
	}
	for i, v := range s {
		if v == q {
			return i
		}
	}
	return -1
}

// Contains reports whether q is a member of Q.
func (s LevelSet) Contains(q Level) bool { return s.Index(q) >= 0 }

// Valid reports whether s is non-empty and strictly ascending.
func (s LevelSet) Valid() bool {
	if len(s) == 0 {
		return false
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// TimeFamily is a quality-indexed family of time functions {X_q}, stored
// densely: Fns[i] is the function for level LevelSet[i].
//
// Levels and the Fns row headers are fixed once a family is built: no
// code re-slices or replaces either, because dense is computed from
// Levels then. Their entries may still be written.
type TimeFamily struct {
	Levels LevelSet
	Fns    []TimeFn
	// dense is len(Levels) when Levels is exactly 0, 1, …, n−1, so that
	// level q is row q, and 0 otherwise. NewTimeFamily sets it and Clone
	// copies it; a family written as a struct literal has 0 and takes
	// At's general path.
	dense uint
}

// NewTimeFamily allocates a family over levels for n actions, with every
// entry set to v.
func NewTimeFamily(levels LevelSet, n int, v Cycles) *TimeFamily {
	fns := make([]TimeFn, len(levels))
	for i := range fns {
		fns[i] = NewTimeFn(n, v)
	}
	return &TimeFamily{Levels: append(LevelSet(nil), levels...), Fns: fns, dense: zeroBased(levels)}
}

// zeroBased returns len(s) when s is exactly 0, 1, …, len(s)−1, and 0
// otherwise.
func zeroBased(s LevelSet) uint {
	for i, q := range s {
		if q != Level(i) {
			return 0
		}
	}
	return uint(len(s))
}

// Tile expands a family sized for a body of m actions over n iterations
// of that body, numbered as Graph.Unroll numbers them: action k·m+a of
// the result is body action a in iteration k. Iterations from..n−1 take
// t's values and the earlier ones take v. Tile(n, 0, 0) gives execution
// times to every iteration; Tile(n, n−1, Inf) gives deadlines to the
// last one only, the end-of-cycle convention.
func (t *TimeFamily) Tile(n, from int, v Cycles) *TimeFamily {
	m := 0
	if len(t.Fns) > 0 {
		m = len(t.Fns[0])
	}
	out := NewTimeFamily(t.Levels, n*m, 0)
	for i, f := range t.Fns {
		fn := out.Fns[i]
		for k := 0; k < n; k++ {
			if k < from {
				for a := range f {
					fn[k*m+a] = v
				}
			} else {
				copy(fn[k*m:], f)
			}
		}
	}
	return out
}

// Clone returns a deep copy of the family.
func (t *TimeFamily) Clone() *TimeFamily {
	fns := make([]TimeFn, len(t.Fns))
	for i, f := range t.Fns {
		fns[i] = f.Clone()
	}
	return &TimeFamily{Levels: append(LevelSet(nil), t.Levels...), Fns: fns, dense: t.dense}
}

// At returns X_q(a). On a zero-based level set (see dense) level q is
// row q, and At answers in line, inlined into its caller; any other
// family goes to at.
//
//qos:hotpath
func (t *TimeFamily) At(q Level, a ActionID) Cycles {
	if uint(q) < t.dense {
		return t.Fns[q][a]
	}
	return t.at(q, a)
}

// at is At for a family that is not zero-based, or a level outside a
// zero-based set. A level at its offset q − qmin in the level set
// (every level of a contiguous range) is answered here; any other level
// goes to index. It is kept out of line so that At stays inlinable.
//
//go:noinline
func (t *TimeFamily) at(q Level, a ActionID) Cycles {
	if s := t.Levels; len(s) > 0 {
		if i := uint(q - s[0]); i < uint(len(s)) && s[i] == q {
			return t.Fns[i][a]
		}
	}
	return t.Fns[t.index(q)][a]
}

// AtIndex returns the function at level index i (0 = qmin).
func (t *TimeFamily) AtIndex(i int) TimeFn { return t.Fns[i] }

// Set assigns X_q(a) = v.
func (t *TimeFamily) Set(q Level, a ActionID, v Cycles) {
	if uint(q) < t.dense {
		t.Fns[q][a] = v
		return
	}
	t.Fns[t.index(q)][a] = v
}

// index returns q's position in the family's level set and panics for a
// level that is not in it. It is kept out of line so that the scan and
// the message formatting stay out of at, which answers every level of a
// contiguous range itself.
//
//go:noinline
func (t *TimeFamily) index(q Level) int {
	i := t.Levels.Index(q)
	if i < 0 {
		panic(fmt.Sprintf("core: level %d not in level set %v", q, t.Levels)) //qos:alloc-ok panic message for a level outside the set; a valid call never reaches it
	}
	return i
}

// SetAll assigns X_q(a) = v for every q.
func (t *TimeFamily) SetAll(a ActionID, v Cycles) {
	for i := range t.Fns {
		t.Fns[i][a] = v
	}
}

// NonDecreasing reports whether X_q(a) is non-decreasing in q for every
// action, as the paper requires of execution times.
func (t *TimeFamily) NonDecreasing() bool {
	for i := 1; i < len(t.Fns); i++ {
		for a := range t.Fns[i] {
			lo, hi := t.Fns[i-1][a], t.Fns[i][a]
			if !hi.IsInf() && (lo.IsInf() || lo > hi) {
				return false
			}
			if lo.IsInf() && !hi.IsInf() {
				return false
			}
		}
	}
	return true
}

// ForAssignment materialises X_θ: the TimeFn with X_θ(a) = X_{θ(a)}(a).
func (t *TimeFamily) ForAssignment(theta Assignment) TimeFn {
	n := len(t.Fns[0])
	out := make(TimeFn, n)
	for a := 0; a < n; a++ {
		out[a] = t.At(theta[a], ActionID(a))
	}
	return out
}

// Assignment is a quality assignment function θ : A → Q, indexed by
// ActionID.
type Assignment []Level

// NewAssignment returns an assignment of n actions, all at level q.
func NewAssignment(n int, q Level) Assignment {
	th := make(Assignment, n)
	for i := range th {
		th[i] = q
	}
	return th
}

// Clone returns a copy of θ.
func (th Assignment) Clone() Assignment { return append(Assignment(nil), th...) }

// OverrideFrom returns θ ▷_i q over schedule alpha: an assignment that
// agrees with θ on the first i elements of alpha and assigns q to all
// later elements. This is the Quality Manager's candidate construction.
func (th Assignment) OverrideFrom(alpha []ActionID, i int, q Level) Assignment {
	out := th.Clone()
	for j := i; j < len(alpha); j++ {
		out[alpha[j]] = q
	}
	return out
}
