package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/bits"
	"strconv"
	"unicode/utf8"
	"unsafe"
)

// DecodeDecideRequest overwrites *req with the /v1/decide request in
// body, decoded into fresh buffers: it is a DecideDecoder's Decode on a
// zero DecideDecoder.
func DecodeDecideRequest(body []byte, req *DecideRequest) error {
	var d DecideDecoder
	return d.Decode(body, req)
}

// DecideDecoder decodes /v1/decide requests into buffers it keeps from
// one Decode to the next: one array of items and one array that backs
// every item's costs. The zero value is ready to use; a DecideDecoder
// must not be used by two goroutines at once.
type DecideDecoder struct {
	// MaxItems, when positive, bounds the items of a request: Decode
	// stops at the request's MaxItems+1st item and fails with
	// ErrTooManyItems, before it decodes the rest of the body.
	MaxItems int

	items []DecideItem
	costs []int64
}

// ErrTooManyItems is Decode's error for a request with more than
// MaxItems items.
var ErrTooManyItems = errors.New("api: too many items")

// Decode overwrites *req with the /v1/decide request in body. A body in
// the plain shape json.Marshal emits is scanned directly:
//
//   - the exact keys "items", "stream", "costs" and "load", none
//     escaped or repeated within its object;
//   - stream and costs as integer literals of at most 18 digits (no
//     sign on stream), load as any JSON number;
//   - any JSON whitespace, and nothing after the closing brace.
//
// A scanned request's items and costs live in d's buffers, which grow
// only when a body needs more than they hold, so req aliases them until
// the next Decode. Any other body — other keys or key case, null,
// fractions or exponents in integer fields, longer literals, trailing
// bytes, malformed JSON — is decoded by encoding/json's Decoder into
// fresh arrays, which reads the first JSON value and ignores the rest,
// so the accepted bodies, the decoded values and the error texts are
// encoding/json's.
func (d *DecideDecoder) Decode(body []byte, req *DecideRequest) error {
	limit := math.MaxInt
	if d.MaxItems > 0 {
		limit = d.MaxItems
	}
	s := decideScanner{b: body, items: d.items[:0], costs: d.costs[:0], limit: limit}
	items, ok := s.request()
	d.items, d.costs = s.items, s.costs
	if ok {
		*req = DecideRequest{Items: items}
		return nil
	}
	if s.over || tooManyItems(body, limit) {
		*req = DecideRequest{}
		return ErrTooManyItems
	}
	// A fresh request, so that only this path hands a value to
	// encoding/json and req stays on its caller's stack.
	var fresh DecideRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&fresh)
	*req = fresh
	return err
}

// tooManyItems reports whether the request encoding/json reads from
// body has more than limit items. It decodes the items as elements that
// take no memory, so the count costs no allocation per item. An array
// of more than limit elements takes at least 2·limit+3 bytes, so a
// shorter body, and any body when there is no limit, is not decoded at
// all.
func tooManyItems(body []byte, limit int) bool {
	if (len(body)-3)/2 < limit {
		return false
	}
	var count struct {
		Items []skipItem `json:"items"`
	}
	json.NewDecoder(bytes.NewReader(body)).Decode(&count) // any error is Decode's to report
	return len(count.Items) > limit
}

// skipItem is an items element that tooManyItems counts and does not
// decode.
type skipItem struct{}

func (*skipItem) UnmarshalJSON([]byte) error { return nil }

// Retained reports the bytes d's items and costs buffers hold, so a
// caller that keeps decoders can bound what they pin.
func (d *DecideDecoder) Retained() int {
	return cap(d.items)*int(unsafe.Sizeof(DecideItem{})) + cap(d.costs)*int(unsafe.Sizeof(int64(0)))
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
// reports false as soon as the body leaves that shape. It starts from a
// decoder's items and costs arrays, emptied, and allocates only when
// the body needs more than their capacity.
type decideScanner struct {
	b     []byte
	i     int
	items []DecideItem
	costs []int64 // backing array of every item's Costs
	sized bool    // costs checked against the body's cost count
	limit int     // the most items a request may have
	over  bool    // the items array passed limit
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

// request scans the whole body into s.items and reports whether it is
// in the plain shape. It returns the items, nil for a body without an
// items key.
func (s *decideScanner) request() ([]DecideItem, bool) {
	seen := false
	ok := s.next('{') && s.object(func() bool {
		if seen || !s.key("items") || !s.next('[') {
			return false
		}
		seen = true
		// Every item json.Marshal emits names its stream, so this
		// count sizes items exactly for plain bodies. A reused array
		// must still be non-nil: encoding/json decodes [] to an empty
		// slice, not nil.
		n := min(bytes.Count(s.b[s.i:], []byte(`"stream"`)), s.limit)
		if s.items == nil || cap(s.items) < n {
			s.items = make([]DecideItem, 0, n)
		}
		return s.list(func() bool {
			if len(s.items) == s.limit {
				s.over = true
				return false
			}
			s.items = append(s.items, DecideItem{})
			return s.next('{') && s.item(&s.items[len(s.items)-1])
		})
	})
	s.i = skipSpace(s.b, s.i)
	ok = ok && s.i == len(s.b)
	if !seen {
		return nil, ok
	}
	return s.items, ok
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
	if !s.sized {
		// In the plain shape a comma separates every two costs, in
		// one array or in two, so the commas left plus one bound the
		// costs left and the backing array never grows. A cost also
		// takes two bytes, which caps the size for other bodies and
		// spares the count when the reused array holds that many.
		s.sized = true
		rest := b[s.i:]
		if n := len(rest)/2 + 1; cap(s.costs) < n {
			if n = min(bytes.Count(rest, []byte{','}), len(rest)/2) + 1; cap(s.costs) < n {
				s.costs = make([]int64, 0, n)
			}
		}
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
		// parseDigits in line, which the decode benchmark reads about
		// 15% faster than the call.
		var v uint64
		var j int
		var valid bool
		if len(b)-i >= 8 {
			var n int
			if v, n = wordDigits(binary.LittleEndian.Uint64(b[i:])); n < 8 {
				j, valid = i+n, n == 1 || n > 1 && b[i] != '0'
			} else {
				v, j, valid = parseDigitBytes(b, i)
			}
		} else {
			v, j, valid = parseDigitBytes(b, i)
		}
		if !valid {
			break
		}
		c := int64(v)
		if neg {
			c = -c
		}
		costs = append(costs, c)
		// json.Marshal puts the comma right after the literal.
		if j < len(b) && b[j] == ',' {
			i = j + 1
		} else if i = skipSpace(b, j); i < len(b) && b[i] == ',' {
			i++
		} else {
			ok = i < len(b) && b[i] == ']'
			break
		}
		i = skipSpace(b, i)
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
// index after its last digit. A literal of fewer than eight digits with
// eight bytes left at i is converted as one word; longer literals and
// the last bytes of a body go to parseDigitBytes.
func parseDigits(b []byte, i int) (uint64, int, bool) {
	if len(b)-i >= 8 {
		if v, n := wordDigits(binary.LittleEndian.Uint64(b[i:])); n < 8 {
			return v, i + n, n == 1 || n > 1 && b[i] != '0'
		}
	}
	return parseDigitBytes(b, i)
}

// wordDigits returns the number of leading decimal digits in the eight
// bytes of w, the first in its lowest byte, and their value when there
// are fewer than eight.
func wordDigits(w uint64) (uint64, int) {
	// The high bit of a byte c is set in c+0x46 for c in [':', 0xba)
	// and in c−'0' for c < '0' and c ≥ 0xb0, so it is set exactly for
	// the non-digits. A carry or borrow runs only upward, from a
	// non-digit, so the lowest flagged byte is the first non-digit.
	nonDigit := ((w + 0x4646464646464646) | (w - 0x3030303030303030)) & 0x8080808080808080
	n := bits.TrailingZeros64(nonDigit) >> 3
	// The digits shifted to the top of the word read as an eight-digit
	// number with leading zeros: combine byte pairs, then pairs of
	// pairs, then the two halves. The mask keeps the shift under 64
	// for the compiler; at n == 0 the value is not used.
	w = w << ((64 - 8*n) & 63) & 0x0f0f0f0f0f0f0f0f
	w = w * (1 + 10<<8) >> 8 & 0x00ff00ff00ff00ff
	w = w * (1 + 100<<16) >> 16 & 0x0000ffff0000ffff
	return w * (1 + 10000<<32) >> 32, n
}

// parseDigitBytes is parseDigits one byte at a time.
func parseDigitBytes(b []byte, i int) (uint64, int, bool) {
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
// writes it, trailing newline included: {"results":[, each result as
// AppendDecideResult appends it, commas between them, and ]} and a
// newline, or "null" for nil results. Like the Encoder, which writes
// nothing for a value it cannot encode, it returns dst unchanged when a
// mean_level is NaN or infinite. qosd's decide handler writes the same
// layout one result at a time.
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
			b = AppendDecideResult(b, &resp.Results[i])
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// AppendDecideResult appends r as encoding/json encodes it: omitempty
// on error and levels, encoding/json's float format for mean_level, and
// HTML-safe escaping of error. r.MeanLevel must be finite.
func AppendDecideResult(b []byte, r *DecideResult) []byte {
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
		for _, l := range r.Levels {
			if uint(l) < 10 {
				b = append(b, byte('0'+l), ',')
			} else {
				b = append(strconv.AppendInt(b, int64(l), 10), ',')
			}
		}
		b[len(b)-1] = ']' // over the last comma
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

// AppendAdmitResponse appends resp as json.NewEncoder(w).Encode writes
// it, trailing newline included: {"streams":[, each stream's fields in
// declaration order with commas between the streams, and ]} and a
// newline, or "null" for nil streams. Model names are escaped as
// encoding/json escapes strings, HTML-safe.
func AppendAdmitResponse(dst []byte, resp *AdmitResponse) []byte {
	// Grow up front for the usual reply: a stream's keys, braces,
	// quotes and comma take 75 bytes, its six integers about ten digits
	// each, and its model name its length unescaped. A longer reply
	// grows as append grows it.
	n := len(`{"streams":[]}`) + 1
	for i := range resp.Streams {
		n += 75 + 6*10 + len(resp.Streams[i].Model)
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	b := append(dst, `{"streams":`...)
	if resp.Streams == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Streams {
			if i > 0 {
				b = append(b, ',')
			}
			s := &resp.Streams[i]
			b = append(b, `{"id":`...)
			b = strconv.AppendUint(b, s.ID, 10)
			b = append(b, `,"model":`...)
			b = appendString(b, s.Model)
			b = append(b, `,"share":`...)
			b = strconv.AppendInt(b, s.Share, 10)
			b = append(b, `,"nominal":`...)
			b = strconv.AppendInt(b, s.Nominal, 10)
			b = append(b, `,"min_need":`...)
			b = strconv.AppendInt(b, s.MinNeed, 10)
			b = append(b, `,"full_need":`...)
			b = strconv.AppendInt(b, s.FullNeed, 10)
			b = append(b, `,"actions":`...)
			b = strconv.AppendInt(b, int64(s.Actions), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
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
