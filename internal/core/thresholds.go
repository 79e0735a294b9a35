package core

import "sync"

// This file holds the flat threshold decision engine's supporting
// machinery: uniform-shift detection for O(1) re-targeting, and a small
// LRU Program cache for recurring non-uniform deadline families.

// UniformShift reports whether the deadline family next is the family
// prev displaced by one common offset: every finite entry moved by the
// same Δ and every +Inf entry stayed +Inf. Under such a shift every
// precomputed slack moves by exactly Δ, so tables built for prev remain
// valid with the controller's time base adjusted by Δ — no rebuild.
// Families with no finite entry at all are uniform with Δ = 0.
func UniformShift(prev, next *TimeFamily) (Cycles, bool) {
	if prev == nil || next == nil || len(prev.Fns) != len(next.Fns) ||
		len(prev.Levels) != len(next.Levels) {
		return 0, false
	}
	for i := range prev.Levels {
		if prev.Levels[i] != next.Levels[i] {
			return 0, false
		}
	}
	var delta Cycles
	have := false
	for li := range prev.Fns {
		pf, nf := prev.Fns[li], next.Fns[li]
		if len(pf) != len(nf) {
			return 0, false
		}
		for a := range pf {
			p, n := pf[a], nf[a]
			switch {
			case p.IsInf() && n.IsInf():
			case p.IsInf() || n.IsInf():
				return 0, false
			case !have:
				delta, have = n.SubSat(p), true
			case n.SubSat(p) != delta:
				return 0, false
			}
		}
	}
	return delta, true
}

// hashDeadlines hashes a deadline family's level set and values — the
// ProgramCache key. A word-at-a-time splitmix-style mixer keeps the key
// computation a small fraction of the table rebuild it short-circuits.
func hashDeadlines(d *TimeFamily) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	mix := func(v uint64) {
		h ^= v
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 29
	}
	for _, q := range d.Levels {
		mix(uint64(q))
	}
	for _, fn := range d.Fns {
		for _, v := range fn {
			mix(uint64(v))
		}
	}
	return h
}

// equalDeadlines reports value equality of two deadline families.
func equalDeadlines(a, b *TimeFamily) bool {
	if len(a.Fns) != len(b.Fns) || len(a.Levels) != len(b.Levels) {
		return false
	}
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] {
			return false
		}
	}
	for li := range a.Fns {
		af, bf := a.Fns[li], b.Fns[li]
		if len(af) != len(bf) {
			return false
		}
		for i := range af {
			if af[i] != bf[i] {
				return false
			}
		}
	}
	return true
}

// equalActionIDs reports element-wise equality (nil equals nil only).
func equalActionIDs(a, b []ActionID) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// equalSoftMasks reports element-wise equality of soft-deadline masks,
// treating nil as all-hard.
func equalSoftMasks(a, b []bool) bool {
	if len(a) != len(b) {
		la, lb := a, b
		// Different lengths can still agree when the longer one is all
		// false (nil means all-hard).
		if len(la) > len(lb) {
			la, lb = lb, la
		}
		for i := range la {
			if la[i] != lb[i] {
				return false
			}
		}
		for _, s := range lb[len(la):] {
			if s {
				return false
			}
		}
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DefaultProgramCacheSize is the capacity NewProgramCache uses when
// given a non-positive one.
const DefaultProgramCacheSize = 8

// ProgramCache is a small LRU of precomputed Programs keyed by their
// deadline family, for controllers that re-target through a recurring
// set of families (e.g. per-frame budgets cycling through a few values,
// as a rate controller produces). Controller.Retarget consults the
// cache attached to its program (WithProgramCache) before rebuilding,
// and inserts what it builds; cached programs are immutable and safely
// shared by any number of controllers, so one cache can serve a whole
// session.Runtime.
//
// The cache assumes the system's graph and execution-time families are
// not mutated in place while cached programs exist (online learning
// paths use the iterative evaluator, which is never cached).
type ProgramCache struct {
	mu      sync.Mutex
	cap     int
	seq     uint64
	hits    uint64
	misses  uint64
	entries []progCacheEntry
}

type progCacheEntry struct {
	hash uint64
	prog *Program
	used uint64
}

// NewProgramCache returns a cache holding up to capacity programs
// (DefaultProgramCacheSize when capacity <= 0).
func NewProgramCache(capacity int) *ProgramCache {
	if capacity <= 0 {
		capacity = DefaultProgramCacheSize
	}
	return &ProgramCache{cap: capacity}
}

// Len returns the number of cached programs.
func (pc *ProgramCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

// Stats returns the cache's hit and miss counts since creation.
func (pc *ProgramCache) Stats() (hits, misses uint64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.hits, pc.misses
}

// lookup returns a cached program equivalent to cur re-targeted to the
// deadline family d, or nil. Equivalence requires the same shared model
// (graph and execution-time families by identity), the same control
// configuration, and value-equal deadlines.
func (pc *ProgramCache) lookup(cur *Program, d *TimeFamily) *Program {
	h := hashDeadlines(d)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for k := range pc.entries {
		e := &pc.entries[k]
		p := e.prog
		if e.hash != h ||
			p.mode != cur.mode || p.maxStep != cur.maxStep ||
			p.useTables != cur.useTables ||
			p.sys.Graph != cur.sys.Graph || p.sys.Cav != cur.sys.Cav || p.sys.Cwc != cur.sys.Cwc ||
			!equalActionIDs(p.fixedAlpha, cur.fixedAlpha) ||
			!equalSoftMasks(p.sys.Soft, cur.sys.Soft) ||
			!equalDeadlines(p.sys.D, d) {
			continue
		}
		pc.seq++
		e.used = pc.seq
		pc.hits++
		return p
	}
	pc.misses++
	return nil
}

// insert adds a freshly built program, evicting the least recently used
// entry when full. The program's deadline family must be an immutable
// snapshot (Retarget clones it before inserting).
func (pc *ProgramCache) insert(p *Program) {
	h := hashDeadlines(p.sys.D)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.seq++
	if len(pc.entries) < pc.cap {
		pc.entries = append(pc.entries, progCacheEntry{hash: h, prog: p, used: pc.seq})
		return
	}
	lru := 0
	for k := 1; k < len(pc.entries); k++ {
		if pc.entries[k].used < pc.entries[lru].used {
			lru = k
		}
	}
	pc.entries[lru] = progCacheEntry{hash: h, prog: p, used: pc.seq}
}
