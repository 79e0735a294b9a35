package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The codec's contract is equality with encoding/json, so both fuzz
// targets are differential: encoding/json is the reference. Their
// corpora under testdata/fuzz hold the plain shape and the bodies that
// must fall back.

func FuzzDecodeDecideRequest(f *testing.F) {
	f.Fuzz(checkDecode)
}

// checkDecode holds DecodeDecideRequest to encoding/json on body: the
// same error text and the same decoded request.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var got, want DecideRequest
	gotErr := DecodeDecideRequest(body, &got)
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("body %q: error %v, encoding/json %v", body, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\ndecoded      %#v\nencoding/json %#v", body, got, want)
	}
}

// TestDecodeIntegerLiterals runs every edge of the eight-byte
// conversion through checkDecode: literals of 1 to 19 digits, plain,
// with a leading zero and with a minus sign, as a cost and as a stream,
// each followed by every byte value or directly by the rest of the
// body, and cut so that 0 to 9 bytes of the body follow the literal.
// A conversion that misses a literal it should accept still decodes
// right, through encoding/json, so parseDigits is also held to a byte
// loop on each of them.
func TestDecodeIntegerLiterals(t *testing.T) {
	const digits = "9876543210987654321"
	for _, c := range []struct{ prefix, rest string }{
		{`{"items":[{"stream":1,"costs":[`, "]}]}     "},
		{`{"items":[{"stream":1,"costs":[`, ",7]}]}   "},
		{`{"items":[{"stream":`, "}]}      "},
	} {
		for n := 1; n <= len(digits); n++ {
			for _, lit := range []string{digits[:n], "0" + digits[:n-1], "-" + digits[:n]} {
				body := []byte(c.prefix + lit)
				at := len(body)
				for term := -1; term < 256; term++ {
					body = body[:at]
					if term >= 0 {
						body = append(body, byte(term))
					}
					body = append(body, c.rest...)
					for left := 0; left <= 9; left++ {
						checkDecode(t, body[:at+left])
						checkDigits(t, body[:at+left], at-len(strings.TrimPrefix(lit, "-")))
					}
				}
			}
		}
	}
}

// checkDigits holds parseDigits(b, i) to a byte loop.
func checkDigits(t *testing.T, b []byte, i int) {
	t.Helper()
	end := i
	for end < len(b) && b[end] >= '0' && b[end] <= '9' {
		end++
	}
	n := end - i
	want, err := strconv.ParseUint(string(b[i:end]), 10, 64)
	ok := err == nil && n <= maxDigits && (n == 1 || b[i] != '0')
	v, j, valid := parseDigits(b, i)
	if valid != ok || ok && (v != want || j != end) {
		t.Fatalf("parseDigits(%q, %d) = %d, %d, %v; want %d, %d, %v", b, i, v, j, valid, want, end, ok)
	}
}

func FuzzAppendDecideResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream uint64, code int, errText string, levels []byte, emptyLevels bool,
		elapsed int64, misses, fallbacks int, mean float64, results uint8) {
		r := DecideResult{Stream: stream, Code: code, Error: errText, Elapsed: elapsed,
			Misses: misses, Fallbacks: fallbacks, MeanLevel: mean}
		if len(levels) > 0 || emptyLevels {
			// A byte below 0x80 is the level itself, so every
			// one-digit level and its neighbours occur; from 0x80 on
			// it is a negative multiple of 997, down to −128·997.
			r.Levels = make([]int, len(levels))
			for i, l := range levels {
				r.Levels[i] = int(l)
				if l >= 0x80 {
					r.Levels[i] = int(int8(l)) * 997
				}
			}
		}
		// 0 results is a nil slice; any multiple of 4 an empty one.
		var resp DecideResponse
		if results > 0 {
			resp.Results = make([]DecideResult, results%4)
			for i := range resp.Results {
				resp.Results[i] = r
				resp.Results[i].Stream += uint64(i)
			}
		}
		want := bytes.NewBufferString("prefix")
		_ = json.NewEncoder(want).Encode(&resp) // writes nothing on NaN or Inf
		if got := AppendDecideResponse([]byte("prefix"), &resp); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%#v:\nappended      %q\nencoding/json %q", resp, got, want.Bytes())
		}
	})
}

// benchDecideBody is a decide request in qosbench's qosd-churn shape:
// 16 items, each with a 72-entry costs vector.
func benchDecideBody(b *testing.B) []byte {
	rng := rand.New(rand.NewSource(1))
	req := DecideRequest{Items: make([]DecideItem, 16)}
	for i := range req.Items {
		req.Items[i] = DecideItem{Stream: uint64(i + 1), Costs: make([]int64, 72)}
		for a := range req.Items[i].Costs {
			req.Items[i].Costs[a] = 20000 + rng.Int63n(400000)
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func BenchmarkDecideCodec(b *testing.B) {
	body := benchDecideBody(b)
	resp := DecideResponse{Results: make([]DecideResult, 16)}
	for i := range resp.Results {
		resp.Results[i] = DecideResult{Stream: uint64(i + 1), Code: DecideOK, Levels: make([]int, 72),
			Elapsed: 28123456, MeanLevel: 2.3472222222222223}
		for a := range resp.Results[i].Levels {
			resp.Results[i].Levels[a] = a % 5
		}
	}
	b.Run("decode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req DecideRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req DecideRequest
			if err := DecodeDecideRequest(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = AppendDecideResponse(buf[:0], &resp)
		}
	})
}
