package qosd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/qosd/api"
)

// FuzzDecideHandler serves any body on /v1/decide of a daemon with two
// admitted streams (ids 1 and 2) and leases off. The answer is 200, 400
// or 413, never a 5xx or a panic, and no decide changes the model's
// stream count or granted capacity. MaxBatch 4 keeps the body limit
// small enough for the fuzzer to cross. The seeds are the decode
// corpus of internal/qosd/api plus a few bodies for the chain model.
func FuzzDecideHandler(f *testing.F) {
	d, err := New(Config{
		Models:   []ModelFile{{Name: "chain", Path: writeTestModel(f)}},
		Budget:   100,
		MaxBatch: 4,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(d.Drain)
	h := d.Handler()
	serve := func(method, target string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		return rec
	}
	if rec := serve(http.MethodPost, "/v1/admit", []byte(`{"streams":2}`)); rec.Code != http.StatusOK {
		f.Fatalf("admit: HTTP %d: %s", rec.Code, rec.Body)
	}
	capacity := func(tb testing.TB) (streams int, granted int64) {
		tb.Helper()
		rec := serve(http.MethodGet, "/v1/capacity", nil)
		var cr api.CapacityResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil || len(cr.Models) != 1 {
			tb.Fatalf("capacity: HTTP %d: %s", rec.Code, rec.Body)
		}
		return cr.Models[0].Streams, cr.Models[0].Granted
	}
	streams, granted := capacity(f)
	if streams != 2 {
		f.Fatalf("%d streams admitted, want 2", streams)
	}

	for _, body := range decodeCorpus(f) {
		f.Add(body)
	}
	f.Add([]byte(`{"items":[{"stream":1,"costs":[20,20]},{"stream":2,"load":0.5}]}`))
	f.Add([]byte(`{"items":[{"stream":1,"costs":[900,900]},{"stream":2,"costs":[0,0]},{"stream":3}]}`))
	f.Add([]byte(`{"items":[{"stream":1},{"stream":1},{"stream":2},{"stream":2},{"stream":1}]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(http.MethodPost, "/v1/decide", body)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("body %q: HTTP %d: %s", body, rec.Code, rec.Body)
		}
		if s, g := capacity(t); s != streams || g != granted {
			t.Fatalf("body %q: capacity moved from %d streams, %d granted to %d, %d", body, streams, granted, s, g)
		}
	})
}

// decodeCorpus reads the body of every seed of the codec's
// FuzzDecodeDecideRequest corpus: files in the "go test fuzz v1"
// format, one quoted []byte value each.
func decodeCorpus(f *testing.F) [][]byte {
	f.Helper()
	dir := filepath.Join("api", "testdata", "fuzz", "FuzzDecodeDecideRequest")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	var bodies [][]byte
	for _, e := range entries {
		file, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		sc := bufio.NewScanner(file)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if q, ok := strings.CutPrefix(line, "[]byte("); ok {
				body, err := strconv.Unquote(strings.TrimSuffix(q, ")"))
				if err != nil {
					f.Fatalf("%s: %v", e.Name(), err)
				}
				bodies = append(bodies, []byte(body))
			}
		}
		file.Close()
		if err := sc.Err(); err != nil {
			f.Fatalf("%s: %v", e.Name(), err)
		}
	}
	if len(bodies) != len(entries) {
		f.Fatalf("read %d bodies from %d corpus files", len(bodies), len(entries))
	}
	return bodies
}
