package session

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/core"
)

// The ".qos" text model format is the input of the paper's prototype
// tool (figure 4), one directive per line:
//
//	# comment
//	levels 0 7            # quality level range
//	action <name>
//	edge <from> <to>
//	time <action> <level|*> <av> <wc>
//	deadline <action> <level|*> <cycles|inf>
//	iterate <n>           # optional: unroll the body n times (chained)
//
// Fields are separated by white space. A level is a non-negative
// integer, or "*" for every level; an exact level overrides "*", and a
// later directive for the same action and level overrides an earlier
// one, as does a later levels or iterate directive. An action's time at
// a level no time directive covers is 0, and its deadline there is +inf.
// An iterated model gives each body action's deadline to its last
// iteration only (the end-of-cycle convention).

// The parser bounds the size of the system a model may describe, so
// that a hostile or mistyped model is an error rather than an
// allocation that does not fit in memory or a build that does not
// finish.
const (
	// MaxLevels bounds the quality levels of a levels directive: far
	// above the paper's eight, and small enough that every time family
	// and constraint table stays at most MaxLevels·MaxActions entries.
	MaxLevels = 256
	// MaxActions bounds the actions of the built system, body actions
	// times the iterate count: a CIF frame of 396 macroblocks at nine
	// actions each (3564) fits.
	MaxActions = 4096
)

// ParseModel reads the ".qos" text model format into a SystemBuilder,
// which the caller may amend before Build.
func ParseModel(r io.Reader) (*SystemBuilder, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("qos: read: %w", err)
	}
	return parseModel(string(src))
}

// LoadModel reads a ".qos" model file into a SystemBuilder, so a model
// file builds a System (and from there a Session or Runtime) directly:
//
//	b, err := qos.LoadModel("app.qos")
//	sys, err := b.Build()
//	rt, err := qos.NewRuntime(sys)
func LoadModel(path string) (*SystemBuilder, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("qos: %w", err)
	}
	return parseModel(string(src))
}

// parseModel declares each directive of src to a builder as it reads
// it, and the level range once the whole model is read. Only the
// format's own errors are returned here; what the builder rejects is
// reported by its Build.
func parseModel(src string) (*SystemBuilder, error) {
	b := NewSystemBuilder()
	b.zeroTimes = true
	var lo, hi int
	levels, actions := false, 0
	// One field more than the longest directive, so that a line with
	// too many fields fails its directive's count.
	var f [6]string
	for lineNo := 1; src != ""; lineNo++ {
		var line string
		line, src, _ = strings.Cut(src, "\n")
		n := fields(line, f[:])
		if n == 0 || f[0][0] == '#' {
			continue
		}
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("qos: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch f[0] {
		case "levels":
			if n != 3 {
				return nil, fail("levels needs <lo> <hi>")
			}
			l, err1 := strconv.Atoi(f[1])
			h, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil || h < l {
				return nil, fail("bad level range %q %q", f[1], f[2])
			}
			// h ≥ l, so the unsigned difference is exact even where
			// the signed one overflows.
			if uint(h)-uint(l) >= MaxLevels {
				return nil, fail("level range %d..%d has more than %d levels", l, h, MaxLevels)
			}
			lo, hi, levels = l, h, true
		case "action":
			if n != 2 {
				return nil, fail("action needs <name>")
			}
			b.Action(f[1])
			actions++
		case "edge":
			if n != 3 {
				return nil, fail("edge needs <from> <to>")
			}
			b.Edge(f[1], f[2])
		case "time":
			if n != 5 {
				return nil, fail("time needs <action> <level|*> <av> <wc>")
			}
			q, err := parseLevel(f[2])
			if err != nil {
				return nil, fail("%v", err)
			}
			av, err1 := parseCycles(f[3])
			wc, err2 := parseCycles(f[4])
			if err1 != nil || err2 != nil {
				return nil, fail("bad cycles %q %q", f[3], f[4])
			}
			if q == wildcard {
				b.TimeAll(f[1], av, wc)
			} else {
				b.Time(f[1], q, av, wc)
			}
		case "deadline":
			if n != 4 {
				return nil, fail("deadline needs <action> <level|*> <cycles|inf>")
			}
			q, err := parseLevel(f[2])
			if err != nil {
				return nil, fail("%v", err)
			}
			d, err := parseCycles(f[3])
			if err != nil {
				return nil, fail("bad deadline %q", f[3])
			}
			if q == wildcard {
				b.DeadlineAll(f[1], d)
			} else {
				b.Deadline(f[1], q, d)
			}
		case "iterate":
			if n != 2 {
				return nil, fail("iterate needs <n>")
			}
			it, err := strconv.Atoi(f[1])
			if err != nil || it < 1 {
				return nil, fail("bad iterate count %q", f[1])
			}
			b.Iterate(it)
		default:
			return nil, fail("unknown directive %q", f[0])
		}
	}
	if !levels {
		return nil, fmt.Errorf("qos: model has no levels directive")
	}
	if actions == 0 {
		return nil, fmt.Errorf("qos: model has no actions")
	}
	if actions > MaxActions/b.iterate {
		return nil, fmt.Errorf("qos: %d actions iterated %d times exceed %d actions", actions, b.iterate, MaxActions)
	}
	return b.Levels(core.Level(lo), core.Level(hi)), nil
}

// fields splits line around runs of white space, as strings.Fields
// does, into f, and returns how many fields it wrote: all of them, or
// len(f) when there are more.
func fields(line string, f []string) int {
	n, i := 0, 0
	for n < len(f) {
		i = skip(line, i, true)
		if i == len(line) {
			break
		}
		end := skip(line, i, false)
		f[n], n, i = line[i:end], n+1, end
	}
	return n
}

// asciiSpace marks the ASCII white space bytes: those unicode.IsSpace
// reports below utf8.RuneSelf.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skip returns the index of the first rune at or after i in s that is
// not (space true) or is (space false) white space.
func skip(s string, i int, space bool) int {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				break
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) != space {
			break
		}
		i += w
	}
	return i
}

// parseLevel reads a level field: a non-negative integer, or "*" for
// the wildcard.
func parseLevel(s string) (core.Level, error) {
	if s == "*" {
		return wildcard, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad level %q", s)
	}
	return core.Level(v), nil
}

// parseCycles reads a non-negative cycle count, or "inf" (or "+inf").
func parseCycles(s string) (core.Cycles, error) {
	if s == "inf" || s == "+inf" {
		return core.Inf, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad cycles %q", s)
	}
	return core.Cycles(v), nil
}
