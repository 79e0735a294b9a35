package api

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// DecodeDecideRequest overwrites *req with the /v1/decide request in
// body. A body in the plain shape json.Marshal emits is scanned
// directly:
//
//   - the exact keys "items", "stream", "costs" and "load", none
//     escaped or repeated within its object;
//   - stream and costs as integer literals of at most 18 digits (no
//     sign on stream), load as any JSON number;
//   - any JSON whitespace, and nothing after the closing brace.
//
// All costs of one request share one backing array. Any other body —
// other keys or key case, null, fractions or exponents in integer
// fields, longer literals, trailing bytes, malformed JSON — is decoded
// by encoding/json's Decoder, which reads the first JSON value and
// ignores the rest, so the accepted bodies, the decoded values and the
// error texts are encoding/json's.
func DecodeDecideRequest(body []byte, req *DecideRequest) error {
	s := decideScanner{b: body}
	if items, ok := s.request(); ok {
		*req = DecideRequest{Items: items}
		return nil
	}
	*req = DecideRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// DecideBodyLimit is the largest /v1/decide body a daemon reads for
// batches of at most maxBatch items over schedules of at most actions
// actions: twice the compact encoding of maxBatch maximal items, each
// with a 20-digit stream, actions 20-byte costs and a 24-byte load. The
// factor two leaves room for whitespace.
func DecideBodyLimit(maxBatch, actions int) int64 {
	item := len(`{"stream":,"costs":[],"load":}`) + 20 + 20*actions + max(actions-1, 0) + 24
	return 2 * int64(item) * int64(maxBatch)
}

// maxDigits is the longest integer literal the scanner converts:
// 10^18-1 fits both int64 and uint64, so no conversion can overflow.
const maxDigits = 18

// decideScanner walks one body in the plain shape. Every method
// reports false as soon as the body leaves that shape.
type decideScanner struct {
	b     []byte
	i     int
	costs []int64 // backing array of every item's Costs
}

// next skips whitespace and consumes c if it comes next.
func (s *decideScanner) next(c byte) bool {
	s.i = skipSpace(s.b, s.i)
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key consumes a quoted key equal to k and the colon after it, or no
// key at all, so the caller can try the next key name.
func (s *decideScanner) key(k string) bool {
	s.i = skipSpace(s.b, s.i)
	r := s.b[s.i:]
	if len(r) < len(k)+2 || r[0] != '"' || string(r[1:1+len(k)]) != k || r[1+len(k)] != '"' {
		return false
	}
	start := s.i
	s.i += len(k) + 2
	if !s.next(':') {
		s.i = start
		return false
	}
	return true
}

// list parses a JSON array whose elements elem consumes, after its
// opening bracket.
func (s *decideScanner) list(elem func() bool) bool {
	if s.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.next(']') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// object parses a JSON object, after its opening brace, handing each
// key to member; member reports false for a key outside the shape or
// one already seen.
func (s *decideScanner) object(member func() bool) bool {
	if s.next('}') {
		return true
	}
	for {
		if !member() {
			return false
		}
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

func (s *decideScanner) request() ([]DecideItem, bool) {
	var items []DecideItem
	seen := false
	ok := s.next('{') && s.object(func() bool {
		if seen || !s.key("items") || !s.next('[') {
			return false
		}
		seen = true
		// Every item json.Marshal emits names its stream, so this
		// count sizes items exactly for plain bodies.
		items = make([]DecideItem, 0, bytes.Count(s.b[s.i:], []byte(`"stream"`)))
		return s.list(func() bool {
			items = append(items, DecideItem{})
			return s.next('{') && s.item(&items[len(items)-1])
		})
	})
	s.i = skipSpace(s.b, s.i)
	return items, ok && s.i == len(s.b)
}

func (s *decideScanner) item(it *DecideItem) bool {
	var seen [3]bool
	return s.object(func() bool {
		switch {
		case !seen[0] && s.key("stream"):
			seen[0] = true
			v, i, ok := parseDigits(s.b, skipSpace(s.b, s.i))
			it.Stream, s.i = v, i
			return ok
		case !seen[1] && s.key("costs"):
			seen[1] = true
			return s.next('[') && s.costList(it)
		case !seen[2] && s.key("load"):
			seen[2] = true
			return s.number(&it.Load)
		}
		return false
	})
}

// costList parses a costs array after its opening bracket: each
// element an optional minus and an integer literal of at most maxDigits
// digits without a leading zero, and the closing bracket, in one loop.
func (s *decideScanner) costList(it *DecideItem) bool {
	b := s.b
	if s.costs == nil {
		// In the plain shape a comma separates every two costs, in
		// one array or in two, so the commas left plus one bound the
		// costs left and the backing array never grows. A cost also
		// takes two bytes, which caps the size for other bodies.
		rest := b[s.i:]
		s.costs = make([]int64, 0, min(bytes.Count(rest, []byte{','}), len(rest)/2)+1)
	}
	costs := s.costs
	start := len(costs)
	i := skipSpace(b, s.i)
	ok := i < len(b) && b[i] == ']'
	for !ok {
		neg := i < len(b) && b[i] == '-'
		if neg {
			i++
		}
		v, j, valid := parseDigits(b, i)
		if !valid {
			break
		}
		c := int64(v)
		if neg {
			c = -c
		}
		costs = append(costs, c)
		if i = skipSpace(b, j); i >= len(b) || b[i] != ',' {
			ok = i < len(b) && b[i] == ']'
			break
		}
		i = skipSpace(b, i+1)
	}
	s.costs, s.i = costs, i+1
	it.Costs = costs[start:len(costs):len(costs)]
	return ok
}

// skipSpace returns the index of the first byte at or after i in b
// that is not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// parseDigits converts the unsigned integer literal at b[i:], of at
// most maxDigits digits and without a leading zero, and returns the
// index after its last digit.
func parseDigits(b []byte, i int) (uint64, int, bool) {
	start := i
	var v uint64
	for i < len(b) && i-start < maxDigits+1 {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + uint64(c)
		i++
	}
	n := i - start
	return v, i, n > 0 && n <= maxDigits && (n == 1 || b[start] != '0')
}

// number converts a JSON number literal as encoding/json does for a
// float64 field; one ParseFloat rejects (out of range) falls back.
func (s *decideScanner) number(f *float64) bool {
	s.i = skipSpace(s.b, s.i)
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if n := s.run(); n == 0 || n > 1 && s.b[s.i-n] == '0' {
		return false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if s.run() == 0 {
			return false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.run() == 0 {
			return false
		}
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	*f = v
	return err == nil
}

// run consumes a run of decimal digits and returns its length.
func (s *decideScanner) run() int {
	start := s.i
	for s.i < len(s.b) && s.b[s.i]-'0' <= 9 {
		s.i++
	}
	return s.i - start
}

// AppendDecideResponse appends resp as json.NewEncoder(w).Encode
// writes it, trailing newline included: omitempty on error and levels,
// encoding/json's float format for mean_level, and HTML-safe escaping
// of error. Like the Encoder, which writes nothing for a value it
// cannot encode, it returns dst unchanged when a mean_level is NaN or
// infinite.
func AppendDecideResponse(dst []byte, resp *DecideResponse) []byte {
	// Grow once up front: a result's other fields take about 160
	// bytes, an escaped error at most six per byte, and a level index
	// is usually one digit and a comma.
	n := len(`{"results":[]}`) + 1
	for i := range resp.Results {
		r := &resp.Results[i]
		if math.IsNaN(r.MeanLevel) || math.IsInf(r.MeanLevel, 0) {
			return dst
		}
		n += 160 + 6*len(r.Error) + 2*len(r.Levels)
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	b := append(dst, `{"results":`...)
	if resp.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendDecideResult(b, &resp.Results[i])
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

func appendDecideResult(b []byte, r *DecideResult) []byte {
	b = append(b, `{"stream":`...)
	b = strconv.AppendUint(b, r.Stream, 10)
	b = append(b, `,"code":`...)
	b = strconv.AppendInt(b, int64(r.Code), 10)
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, r.Error)
	}
	if len(r.Levels) > 0 {
		b = append(b, `,"levels":[`...)
		for i, l := range r.Levels {
			if i > 0 {
				b = append(b, ',')
			}
			if uint(l) < 10 {
				b = append(b, byte('0'+l))
			} else {
				b = strconv.AppendInt(b, int64(l), 10)
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"elapsed":`...)
	b = strconv.AppendInt(b, r.Elapsed, 10)
	b = append(b, `,"misses":`...)
	b = strconv.AppendInt(b, int64(r.Misses), 10)
	b = append(b, `,"fallbacks":`...)
	b = strconv.AppendInt(b, int64(r.Fallbacks), 10)
	b = append(b, `,"mean_level":`...)
	b = appendFloat(b, r.MeanLevel)
	return append(b, '}')
}

// appendFloat formats a finite f as encoding/json does: ES6 number to
// string, the 'e' form below 1e-6 and from 1e21 on, with a one-digit
// negative exponent unpadded (e-7, not e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString quotes s as encoding/json does with HTML escaping on:
// control characters, quote, backslash, <, > and & escaped, invalid
// UTF-8 replaced by \ufffd, and U+2028/U+2029 escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, `\b`...)
			case '\f':
				b = append(b, `\f`...)
			case '\n':
				b = append(b, `\n`...)
			case '\r':
				b = append(b, `\r`...)
			case '\t':
				b = append(b, `\t`...)
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
