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
	"time"

	"repro/internal/qosd/api"
)

// fuzzDaemon boots a daemon over the chain model for a fuzz target:
// budget 100 (two hard streams), leases off, MaxBatch 4, which keeps the
// decide body limit small enough for the fuzzer to cross, and admit
// requests shed after admitTimeout. It returns a function that serves
// one request on the daemon's in-process Handler.
func fuzzDaemon(f *testing.F, admitTimeout time.Duration) func(method, target string, body []byte) *httptest.ResponseRecorder {
	d, err := New(Config{
		Models:       []ModelFile{{Name: "chain", Path: writeTestModel(f)}},
		Budget:       100,
		MaxBatch:     4,
		AdmitTimeout: admitTimeout,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(d.Drain)
	h := d.Handler()
	return func(method, target string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		return rec
	}
}

// capacityOf reads the chain model's row of /v1/capacity.
func capacityOf(tb testing.TB, serve func(method, target string, body []byte) *httptest.ResponseRecorder) api.ModelCapacity {
	tb.Helper()
	rec := serve(http.MethodGet, "/v1/capacity", nil)
	var cr api.CapacityResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil || len(cr.Models) != 1 {
		tb.Fatalf("capacity: HTTP %d: %s", rec.Code, rec.Body)
	}
	return cr.Models[0]
}

// FuzzDecideHandler serves any body on /v1/decide of a daemon with two
// admitted streams (ids 1 and 2). The answer is 200, 400 or 413, never
// a 5xx or a panic, and no decide changes the model's stream count or
// granted capacity. The seeds are the decode corpus of
// internal/qosd/api plus a few bodies for the chain model.
func FuzzDecideHandler(f *testing.F) {
	serve := fuzzDaemon(f, 0)
	if rec := serve(http.MethodPost, "/v1/admit", []byte(`{"streams":2}`)); rec.Code != http.StatusOK {
		f.Fatalf("admit: HTTP %d: %s", rec.Code, rec.Body)
	}
	want := capacityOf(f, serve)
	if want.Streams != 2 {
		f.Fatalf("%d streams admitted, want 2", want.Streams)
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
		if c := capacityOf(t, serve); c.Streams != want.Streams || c.Granted != want.Granted {
			t.Fatalf("body %q: capacity moved from %d streams, %d granted to %d, %d",
				body, want.Streams, want.Granted, c.Streams, c.Granted)
		}
	})
}

// FuzzAdmitHandler serves any body on /v1/admit of a daemon with no
// stream admitted. The answer is 200, 400, 404, 413 or 429, never a
// 5xx or a panic. After each call /v1/capacity shows Σ granted ≤ total
// and as many streams as the call admitted; releasing them empties the
// model again. The checked-in corpus holds the admit bodies of the
// daemon's tests.
func FuzzAdmitHandler(f *testing.F) {
	serve := fuzzDaemon(f, time.Millisecond)
	f.Add(append(append([]byte(`{"streams":1`), bytes.Repeat([]byte{' '}, maxSmallBody)...), '}'))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(http.MethodPost, "/v1/admit", body)
		var ar api.AdmitResponse
		switch rec.Code {
		case http.StatusOK:
			if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
				t.Fatalf("body %q: admit reply %s: %v", body, rec.Body, err)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("body %q: HTTP %d: %s", body, rec.Code, rec.Body)
		}
		if c := capacityOf(t, serve); c.Streams != len(ar.Streams) || c.Granted > c.Total {
			t.Fatalf("body %q: %d streams admitted, capacity shows %d streams, %d of %d granted",
				body, len(ar.Streams), c.Streams, c.Granted, c.Total)
		}
		for _, st := range ar.Streams {
			release := []byte(`{"stream":` + strconv.FormatUint(st.ID, 10) + `}`)
			if rec := serve(http.MethodPost, "/v1/release", release); rec.Code != http.StatusOK {
				t.Fatalf("release stream %d: HTTP %d: %s", st.ID, rec.Code, rec.Body)
			}
		}
		if c := capacityOf(t, serve); c.Streams != 0 || c.Committed != 0 || c.Granted != 0 {
			t.Fatalf("body %q: released model still holds %d streams, %d committed, %d granted",
				body, c.Streams, c.Committed, c.Granted)
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
