package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// The codec's contract is equality with encoding/json, so its fuzz
// targets are differential: encoding/json is the reference. Their
// corpora under testdata/fuzz hold the plain shape and the bodies that
// must fall back.

func FuzzDecodeDecideRequest(f *testing.F) {
	f.Fuzz(checkDecode)
}

// checkDecode holds DecodeDecideRequest to encoding/json on body: the
// same error text and the same decoded request. It holds a reused
// DecideDecoder to the same, right after the decoder scanned a larger
// body into its buffers.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var want DecideRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	check := func(how string, got DecideRequest, gotErr error) {
		t.Helper()
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("body %q, %s: error %v, encoding/json %v", body, how, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q, %s:\ndecoded      %#v\nencoding/json %#v", body, how, got, want)
		}
	}
	var got DecideRequest
	err := DecodeDecideRequest(body, &got)
	check("fresh buffers", got, err)

	var d DecideDecoder
	larger := largerBody(body)
	if err := d.Decode(larger, &got); err != nil || len(got.Items) == 0 || d.Retained() == 0 {
		t.Fatalf("larger body %q: %d items, error %v", larger, len(got.Items), err)
	}
	err = d.Decode(body, &got)
	check("reused buffers", got, err)
}

// largerBody returns a body in the plain shape, every stream and cost
// nonzero, that leaves a decoder's buffers holding more than body needs:
// one item more than body names streams, and more costs than body has
// pairs of bytes, so the decode of body sizes nothing anew.
func largerBody(body []byte) []byte {
	b := []byte(`{"items":[{"stream":7,"costs":[1`)
	for i := 2; i <= len(body)/2+2; i++ {
		b = strconv.AppendInt(append(b, ','), int64(i), 10)
	}
	b = append(b, `],"load":0.5}`...)
	for i := bytes.Count(body, []byte(`"stream"`)); i > 0; i-- {
		b = strconv.AppendInt(append(b, `,{"stream":`...), int64(i+7), 10)
		b = append(b, `,"costs":[3],"load":1}`...)
	}
	return append(b, "]}"...)
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

func FuzzAppendAdmitResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, id uint64, model string, share, nominal, minNeed, fullNeed int64, actions int, streams uint8) {
		s := StreamInfo{ID: id, Model: model, Share: share, Nominal: nominal,
			MinNeed: minNeed, FullNeed: fullNeed, Actions: actions}
		// 0 streams is a nil slice; any multiple of 4 an empty one.
		var resp AdmitResponse
		if streams > 0 {
			resp.Streams = make([]StreamInfo, streams%4)
			for i := range resp.Streams {
				resp.Streams[i] = s
				resp.Streams[i].ID += uint64(i)
				resp.Streams[i].Model += strings.Repeat(model, i)
			}
		}
		want := bytes.NewBufferString("prefix")
		if err := json.NewEncoder(want).Encode(&resp); err != nil {
			t.Fatal(err)
		}
		if got := AppendAdmitResponse([]byte("prefix"), &resp); !bytes.Equal(got, want.Bytes()) {
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
	b.Run("decode/codec-reused", func(b *testing.B) {
		b.ReportAllocs()
		var d DecideDecoder
		var req DecideRequest
		for i := 0; i < b.N; i++ {
			if err := d.Decode(body, &req); err != nil {
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

// TestDecodeAllocatesOnce holds the decoder to one allocation per
// buffer: a fresh decoder sizes its items and its costs arrays once
// each for a plain body, and a decoder that has held the body before
// allocates nothing.
func TestDecodeAllocatesOnce(t *testing.T) {
	req := DecideRequest{Items: make([]DecideItem, 16)}
	for i := range req.Items {
		req.Items[i] = DecideItem{Stream: uint64(i + 1), Costs: []int64{int64(i), 2, 3}, Load: 0.5}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var got DecideRequest
	fresh := testing.AllocsPerRun(100, func() {
		var d DecideDecoder
		if err := d.Decode(body, &got); err != nil {
			t.Fatal(err)
		}
	})
	if fresh != 2 {
		t.Errorf("fresh decoder: %v allocations, want 2 (items and costs)", fresh)
	}
	var d DecideDecoder
	reused := testing.AllocsPerRun(100, func() {
		if err := d.Decode(body, &got); err != nil {
			t.Fatal(err)
		}
	})
	if reused != 0 {
		t.Errorf("reused decoder: %v allocations, want 0", reused)
	}
}

// TestDecodeKeylessItemsLinear holds the items array to geometric
// growth for bodies whose items name no stream, so that nothing sizes
// the array ahead: {"items":[{},{},…]} from a thousand items up to the
// body limit of 64-item batches over 72 actions (about 68,000 items).
// Decoding such a body must take a logarithmic number of allocations
// and bytes linear in its items, not one allocation and one copy of the
// array per item. The growth law is the same at the default limit,
// 16 times larger, where each decode allocates about 200 MB.
func TestDecodeKeylessItemsLinear(t *testing.T) {
	limit := int(DecideBodyLimit(64, 72))
	itemSize := uint64(unsafe.Sizeof(DecideItem{}))
	most := (limit - len(`{"items":[{}]}`)) / len(`,{}`)
	for n := 1 << 10; ; n = min(4*n, most) {
		body := append([]byte(`{"items":[{}`), bytes.Repeat([]byte(`,{}`), n-1)...)
		body = append(body, "]}"...)
		var before, after runtime.MemStats
		var got DecideRequest
		runtime.ReadMemStats(&before)
		err := DecodeDecideRequest(body, &got)
		runtime.ReadMemStats(&after)
		if err != nil || len(got.Items) != n {
			t.Fatalf("%d keyless items: decoded %d, error %v", n, len(got.Items), err)
		}
		if allocs := after.Mallocs - before.Mallocs; allocs > 64 {
			t.Fatalf("%d keyless items: %d allocations, want at most 64", n, allocs)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 8*uint64(n)*itemSize {
			t.Fatalf("%d keyless items: %d bytes allocated, want at most %d", n, b, 8*uint64(n)*itemSize)
		}
		if n == most {
			return
		}
	}
}

// TestDecodeStopsAtMaxItems decodes bodies of {} items that fill the
// default daemon's body limit (MaxBatch 1024 over 72 actions, about 1.08
// million items) with MaxItems 1024. Both the scanned shape and one that
// falls back to encoding/json (key "Items") must fail with
// ErrTooManyItems without decoding the items: the scan allocates under
// 1 MiB, and the fallback only the copy of the body encoding/json's
// Decoder reads it into, where decoding every item took about 200 MB.
// MaxItems items still decode, and MaxItems+1 do not.
func TestDecodeStopsAtMaxItems(t *testing.T) {
	const maxItems = 1024
	limit := int(DecideBodyLimit(maxItems, 72))
	bodyOf := func(key string, n int) []byte {
		body := append([]byte(`{"`+key+`":[{}`), bytes.Repeat([]byte(`,{}`), n-1)...)
		return append(body, "]}"...)
	}
	most := (limit - len(`{"items":[{}]}`)) / len(`,{}`)
	for _, c := range []struct {
		key   string
		bound uint64
	}{
		{"items", 1 << 20},
		{"Items", 4 * uint64(limit)},
	} {
		d := DecideDecoder{MaxItems: maxItems}
		var req DecideRequest
		for _, n := range []int{maxItems, maxItems + 1} {
			err := d.Decode(bodyOf(c.key, n), &req)
			if ok := n <= maxItems; (err == nil) != ok || ok && len(req.Items) != n || !ok && !errors.Is(err, ErrTooManyItems) {
				t.Fatalf("%q, %d items: decoded %d, error %v", c.key, n, len(req.Items), err)
			}
		}
		body := bodyOf(c.key, most)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := d.Decode(body, &req)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTooManyItems) || req.Items != nil {
			t.Fatalf("%q, %d items: decoded %d, error %v", c.key, most, len(req.Items), err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > c.bound {
			t.Errorf("%q, %d items in %d bytes: %d bytes allocated, want at most %d", c.key, most, len(body), b, c.bound)
		}
	}
}
