package qosd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/qosd/api"
)

// testModel is a two-action chain whose qmin worst case is 40 cycles
// against a 100-cycle deadline: MinNeed 40, FullNeed 70, Nominal 100.
const testModel = `
levels 0 1
action a
action b
edge a b
time a * 10 20
time b 0 10 20
time b 1 30 50
deadline b * 100
`

func writeTestModel(t testing.TB) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "chain.qos")
	if err := os.WriteFile(path, []byte(testModel), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// newTestDaemon boots a daemon over the tiny chain model with a budget
// that admits exactly two hard streams (2 × MinNeed 40 ≤ 100 < 120).
func newTestDaemon(t *testing.T, mod func(*Config)) (*Daemon, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Models:       []ModelFile{{Name: "chain", Path: writeTestModel(t)}},
		Budget:       100,
		AdmitTimeout: 50 * time.Millisecond,
	}
	if mod != nil {
		mod(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Drain()
	})
	return d, srv
}

// postJSON posts v and decodes the response into out (when non-nil),
// returning the status code and headers.
func postJSON(t *testing.T, url string, v, out any) (int, http.Header) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func admitN(t *testing.T, srv *httptest.Server, n int) []api.StreamInfo {
	t.Helper()
	var ar api.AdmitResponse
	code, _ := postJSON(t, srv.URL+"/v1/admit", api.AdmitRequest{Streams: n}, &ar)
	if code != http.StatusOK {
		t.Fatalf("admit %d: HTTP %d", n, code)
	}
	if len(ar.Streams) != n {
		t.Fatalf("admit %d: got %d streams", n, len(ar.Streams))
	}
	return ar.Streams
}

func TestQosdAdmitDecideRelease(t *testing.T) {
	_, srv := newTestDaemon(t, nil)
	streams := admitN(t, srv, 2)
	for _, s := range streams {
		if s.Model != "chain" || s.MinNeed != 40 || s.FullNeed < s.MinNeed || s.Actions != 2 {
			t.Fatalf("stream info: %+v", s)
		}
		if s.Share < s.MinNeed {
			t.Fatalf("share %d below min need", s.Share)
		}
	}

	// A batch mixing synthetic load and explicit costs; every admitted
	// hard stream must clear its cycle without a deadline miss.
	var dr api.DecideResponse
	code, _ := postJSON(t, srv.URL+"/v1/decide", api.DecideRequest{Items: []api.DecideItem{
		{Stream: streams[0].ID, Load: 1},
		{Stream: streams[1].ID, Costs: []int64{20, 20}},
	}}, &dr)
	if code != http.StatusOK {
		t.Fatalf("decide: HTTP %d", code)
	}
	if len(dr.Results) != 2 {
		t.Fatalf("decide: %d results", len(dr.Results))
	}
	for i, r := range dr.Results {
		if r.Code != api.DecideOK {
			t.Fatalf("item %d: code %d (%s)", i, r.Code, r.Error)
		}
		if r.Misses != 0 {
			t.Fatalf("item %d: %d deadline misses on an admitted hard stream", i, r.Misses)
		}
		if len(r.Levels) != 2 {
			t.Fatalf("item %d: %d per-step levels, schedule has 2", i, len(r.Levels))
		}
		if r.Elapsed <= 0 {
			t.Fatalf("item %d: elapsed %d", i, r.Elapsed)
		}
	}

	var rr api.ReleaseResponse
	code, _ = postJSON(t, srv.URL+"/v1/release", api.ReleaseRequest{Stream: streams[0].ID}, &rr)
	if code != http.StatusOK || !rr.Released {
		t.Fatalf("release: HTTP %d %+v", code, rr)
	}
	// Double release: the stream is gone.
	code, _ = postJSON(t, srv.URL+"/v1/release", api.ReleaseRequest{Stream: streams[0].ID}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("double release: HTTP %d", code)
	}
	// Its share is back: a third stream admits now.
	admitN(t, srv, 1)
}

// TestQosdServesQualityDependentDeadlines admits streams of a model
// whose EDF order changes with quality and decides cycles at loads
// inside the worst-case contract: every cycle is served at more than one
// level with no miss and no fallback.
func TestQosdServesQualityDependentDeadlines(t *testing.T) {
	_, srv := newTestDaemon(t, func(cfg *Config) {
		cfg.Models = []ModelFile{{Name: "crossing", Path: "../../examples/models/crossing_deadlines.qos"}}
		cfg.Budget = 0
	})
	streams := admitN(t, srv, 4)
	levels := map[int]bool{}
	for cycle := 0; cycle < 20; cycle++ {
		var req api.DecideRequest
		for i, s := range streams {
			req.Items = append(req.Items, api.DecideItem{Stream: s.ID, Load: float64((cycle+i)%5) / 4})
		}
		var resp api.DecideResponse
		if code, _ := postJSON(t, srv.URL+"/v1/decide", req, &resp); code != http.StatusOK {
			t.Fatalf("cycle %d: HTTP %d", cycle, code)
		}
		for _, r := range resp.Results {
			if r.Code != api.DecideOK || r.Misses != 0 || r.Fallbacks != 0 {
				t.Fatalf("cycle %d: %+v", cycle, r)
			}
			for _, l := range r.Levels {
				levels[l] = true
			}
		}
	}
	if len(levels) < 2 {
		t.Fatalf("every decision at one level index: %v", levels)
	}
}

func TestQosdMalformedRequests(t *testing.T) {
	_, srv := newTestDaemon(t, nil)
	for _, ep := range []string{"/v1/admit", "/v1/release", "/v1/decide"} {
		resp, err := http.Post(srv.URL+ep, "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with garbage body: HTTP %d", ep, resp.StatusCode)
		}
		// Wrong method.
		resp, err = http.Get(srv.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s: HTTP %d", ep, resp.StatusCode)
		}
	}
	// Unknown model.
	code, _ := postJSON(t, srv.URL+"/v1/admit", api.AdmitRequest{Model: "nope"}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("admit unknown model: HTTP %d", code)
	}
	// Unknown capacity filter.
	resp, err := http.Get(srv.URL + "/v1/capacity?model=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("capacity unknown model: HTTP %d", resp.StatusCode)
	}
}

func TestQosdOverCapacityAdmitSheds(t *testing.T) {
	_, srv := newTestDaemon(t, nil)

	// A batch the budget cannot carry is refused whole: 429 with
	// Retry-After, and no partial grant survives.
	var er api.ErrorResponse
	code, hdr := postJSON(t, srv.URL+"/v1/admit", api.AdmitRequest{Streams: 3}, &er)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity admit: HTTP %d", code)
	}
	if hdr.Get("Retry-After") == "" || er.RetryAfter < 1 {
		t.Fatalf("429 without Retry-After: header=%q body=%+v", hdr.Get("Retry-After"), er)
	}
	var cr api.CapacityResponse
	resp, err := http.Get(srv.URL + "/v1/capacity")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cr.Models[0].Streams != 0 || cr.Models[0].Committed != 0 {
		t.Fatalf("rolled-back admit leaked capacity: %+v", cr.Models[0])
	}

	// The budget's actual capacity is untouched: two streams admit,
	// and only then is a third shed.
	streams := admitN(t, srv, 2)
	if code, _ := postJSON(t, srv.URL+"/v1/admit", api.AdmitRequest{}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("third admit: HTTP %d", code)
	}
	// The admitted streams kept their guarantee through the shedding.
	var dr api.DecideResponse
	postJSON(t, srv.URL+"/v1/decide", api.DecideRequest{Items: []api.DecideItem{
		{Stream: streams[0].ID, Load: 1}, {Stream: streams[1].ID, Load: 1},
	}}, &dr)
	for _, r := range dr.Results {
		if r.Code != api.DecideOK || r.Misses != 0 {
			t.Fatalf("admitted stream degraded during shedding: %+v", r)
		}
	}
}

// TestQosdAdmitTimeoutBoundsOnlyQueueing gives the daemon an admit
// timeout that has passed before the first admission is tried: a batch
// the budget has room for is still admitted whole, and only a request
// that would have to queue is shed.
func TestQosdAdmitTimeoutBoundsOnlyQueueing(t *testing.T) {
	const batch = 32
	_, srv := newTestDaemon(t, func(c *Config) {
		c.Budget = batch * 40 // room for exactly 32 streams of MinNeed 40
		c.AdmitTimeout = time.Nanosecond
	})
	admitN(t, srv, batch)
	var er api.ErrorResponse
	code, hdr := postJSON(t, srv.URL+"/v1/admit", api.AdmitRequest{Streams: 1}, &er)
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("admit to a full budget: HTTP %d, Retry-After %q", code, hdr.Get("Retry-After"))
	}
	if want := "budget exhausted after 0/1 admissions"; er.Error != want {
		t.Fatalf("shed message %q, want %q", er.Error, want)
	}
}

// TestQosdAdmitGoneClientRollsBack sends an admit whose client has
// already gone: the budget has room, but no grant is kept.
func TestQosdAdmitGoneClientRollsBack(t *testing.T) {
	d, _ := newTestDaemon(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/admit", strings.NewReader(`{"streams":2}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("admit for a gone client: HTTP %d: %s", rec.Code, rec.Body)
	}
	serve := func(method, target string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		return rec
	}
	if c := capacityOf(t, serve); c.Streams != 0 || c.Committed != 0 {
		t.Fatalf("gone client's admit kept capacity: %+v", c)
	}
}

func TestQosdDecideItemCodes(t *testing.T) {
	_, srv := newTestDaemon(t, nil)
	st := admitN(t, srv, 1)[0]

	var dr api.DecideResponse
	code, _ := postJSON(t, srv.URL+"/v1/decide", api.DecideRequest{Items: []api.DecideItem{
		{Stream: 999},                            // unknown
		{Stream: st.ID, Costs: []int64{1, 2, 3}}, // wrong length
		{Stream: st.ID, Costs: []int64{-1, 5}},   // negative
		{Stream: st.ID, Costs: []int64{20, 20}},  // fine
	}}, &dr)
	if code != http.StatusOK {
		t.Fatalf("decide: HTTP %d", code)
	}
	want := []int{api.DecideUnknown, api.DecideBadCosts, api.DecideBadCosts, api.DecideOK}
	for i, r := range dr.Results {
		if r.Code != want[i] {
			t.Fatalf("item %d: code %d, want %d (%s)", i, r.Code, want[i], r.Error)
		}
	}
}

// TestQosdDecideReplyMixedBatch: the handler appends each result as its
// cycle ends, and the whole reply must be the bytes AppendDecideResponse
// and encoding/json write for the same results, over a batch that takes
// every result path, and over empty and null item lists.
func TestQosdDecideReplyMixedBatch(t *testing.T) {
	d, srv := newTestDaemon(t, func(c *Config) {
		c.Budget = 1000
		c.LeaseEpochs = 1 // no reaper runs: epochs advance only below
	})
	budget := d.models["chain"].budget
	revoked := admitN(t, srv, 1)[0].ID
	for i := 0; budget.Stats().Revoked == 0; i++ {
		if i == 10 {
			t.Fatalf("stream %d not revoked after %d epochs: %+v", revoked, i, budget.Stats())
		}
		budget.Rebalance()
	}
	sts := admitN(t, srv, 4)
	a, b, released, gone := sts[0].ID, sts[1].ID, sts[2].ID, sts[3].ID
	if code, _ := postJSON(t, srv.URL+"/v1/release", api.ReleaseRequest{Stream: released}, nil); code != http.StatusOK {
		t.Fatalf("release: HTTP %d", code)
	}
	// A release that lands after the batch resolved its streams: the
	// stream is torn down while its registry entry remains.
	d.mu.Lock()
	st := d.streams[gone]
	d.mu.Unlock()
	st.mu.Lock()
	d.teardownLocked(st)
	st.mu.Unlock()

	serve := func(body []byte) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("decide %s: HTTP %d: %s", body, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	batch := mustMarshal(t, api.DecideRequest{Items: []api.DecideItem{
		{Stream: a, Costs: []int64{20, 20}},
		{Stream: b, Load: 0.5},
		{Stream: 999},
		{Stream: released},
		{Stream: gone},
		{Stream: a, Costs: []int64{1, 2, 3}},
		{Stream: b, Costs: []int64{-1, 5}},
		{Stream: a, Costs: []int64{1000, 1000}},
		{Stream: revoked},
	}})
	type result struct {
		code int
		err  string
	}
	want := []result{
		{api.DecideOK, ""},
		{api.DecideOK, ""},
		{api.DecideUnknown, "unknown stream"},
		{api.DecideUnknown, "unknown stream"},
		{api.DecideUnknown, "stream released"},
		{api.DecideBadCosts, "costs length 3, schedule has 2 actions"},
		{api.DecideBadCosts, "negative cost"},
		{api.DecideOK, ""},
		{api.DecideRevoked, "mixer: grant revoked (lease expired or released)"},
	}
	sameAsReference := func(reply []byte, resp *api.DecideResponse) {
		t.Helper()
		if got := api.AppendDecideResponse(nil, resp); !bytes.Equal(reply, got) {
			t.Fatalf("reply differs from AppendDecideResponse:\nreply     %s\nreference %s", reply, got)
		}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(resp); err != nil || !bytes.Equal(reply, enc.Bytes()) {
			t.Fatalf("reply differs from encoding/json (%v):\nreply         %s\nencoding/json %s", err, reply, enc.Bytes())
		}
	}
	checkBatch := func(reply []byte, want []result) {
		t.Helper()
		var dr api.DecideResponse
		if err := json.Unmarshal(reply, &dr); err != nil {
			t.Fatalf("reply %s: %v", reply, err)
		}
		if len(dr.Results) != len(want) {
			t.Fatalf("%d results for %d items: %s", len(dr.Results), len(want), reply)
		}
		for i, r := range dr.Results {
			if r.Code != want[i].code || r.Error != want[i].err {
				t.Fatalf("item %d: code %d %q, want %d %q", i, r.Code, r.Error, want[i].code, want[i].err)
			}
			if (r.Code == api.DecideOK) != (len(r.Levels) == 2) {
				t.Fatalf("item %d: code %d with levels %v", i, r.Code, r.Levels)
			}
		}
		if dr.Results[7].Fallbacks == 0 {
			t.Fatalf("fallback-forcing item did not fall back: %+v", dr.Results[7])
		}
		sameAsReference(reply, &dr)
	}
	checkBatch(serve(batch), want)

	// The same batch again, right after a larger request and a smaller
	// one, so that it is served from buffers that held other items,
	// costs and replies. The revoked stream has left the registry.
	larger := api.DecideRequest{Items: make([]api.DecideItem, 24)}
	for i := range larger.Items {
		larger.Items[i] = api.DecideItem{Stream: b, Costs: []int64{30 + int64(i), 10}}
	}
	larger.Items[5] = api.DecideItem{Stream: 998}
	larger.Items[9].Costs = []int64{4, 5, 6, 7}
	serve(mustMarshal(t, larger))
	serve(mustMarshal(t, api.DecideRequest{Items: []api.DecideItem{{Stream: a, Load: 1}}}))
	want[8] = result{api.DecideUnknown, "unknown stream"}
	checkBatch(serve(batch), want)

	for _, body := range []string{`{"items":[]}`, `{"items":null}`, `{}`} {
		reply := serve([]byte(body))
		if string(reply) != "{\"results\":[]}\n" {
			t.Fatalf("decide %s: reply %q", body, reply)
		}
		sameAsReference(reply, &api.DecideResponse{Results: []api.DecideResult{}})
	}
}

// TestQosdDecideAllocsFlat: a decide request's allocations do not grow
// with its item count — costs, levels and the reply each share one
// per-request buffer, and the workload function is bound per stream —
// and neither do its bytes with its items times the schedule length.
func TestQosdDecideAllocsFlat(t *testing.T) {
	d, srv := newTestDaemon(t, nil)
	st := admitN(t, srv, 1)[0]
	h := d.Handler()
	allocs := func(items int) float64 {
		req := api.DecideRequest{Items: make([]api.DecideItem, items)}
		for i := range req.Items {
			req.Items[i] = api.DecideItem{Stream: st.ID, Costs: []int64{20, 20}}
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("decide: HTTP %d: %s", rec.Code, rec.Body)
			}
		})
	}
	one, sixteen := allocs(1), allocs(16)
	t.Logf("allocs per decide: %.0f for 1 item, %.0f for 16", one, sixteen)
	if sixteen > one+4 {
		t.Fatalf("decide allocations grow with items: %.0f for 1 item, %.0f for 16", one, sixteen)
	}

	// On the 72-action MPEG body model, a buffer of items × actions
	// levels would take 1024 × 72 × 8 B; the whole request must take
	// less.
	mpeg, err := New(Config{Models: []ModelFile{{Name: "mpeg_body", Path: "../../examples/models/mpeg_body.qos"}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mpeg.Drain)
	const items = 1024
	req := api.DecideRequest{Items: make([]api.DecideItem, items)}
	for i := range req.Items {
		req.Items[i].Stream = uint64(1000 + i) // unknown
	}
	body := mustMarshal(t, req)
	h = mpeg.Handler()
	perRequest := bytesPerRun(20, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("decide: HTTP %d: %s", rec.Code, rec.Body)
		}
	})
	bound := uint64(items * mpeg.maxActions * 8)
	t.Logf("bytes per decide of %d unknown items (%d B body): %d, bound %d", items, len(body), perRequest, bound)
	if perRequest >= bound {
		t.Fatalf("decide of %d items allocates %d B per request, not under items × maxActions × 8 = %d B",
			items, perRequest, bound)
	}

	// In steady state a churn-shaped request is served from pooled
	// buffers: what it allocates is httptest's request and recorder,
	// about 10 KiB, and not its 7 KiB body, its 9 KiB of costs or its
	// items and levels. The race detector's sync.Pool drops Puts at
	// random, so the bound holds only without it.
	if raceEnabled {
		t.Log("race detector on: steady-state bound not checked")
		return
	}
	churn, ids := churnFleet(t)
	bodies := churnBodies(t, churn, ids, churnItems, 4, 1)
	h = churn.Handler()
	n := 0
	perRequest = bytesPerRun(40, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(bodies[n%len(bodies)])))
		n++
		if err := checkServed(rec, churnItems); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("bytes per churn-shaped decide (%d B body): %d", len(bodies[0]), perRequest)
	if perRequest >= 16<<10 {
		t.Fatalf("churn-shaped decide allocates %d B per request, want under 16 KiB", perRequest)
	}
}

// bytesPerRun reports the mean heap bytes allocated by one call of f,
// over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestQosdDecideShortBodyAllocation: a decide request whose
// Content-Length declares the whole body limit but whose body is short
// reserves no buffer of the declared size before its bytes arrive.
func TestQosdDecideShortBodyAllocation(t *testing.T) {
	d, err := New(Config{Models: []ModelFile{{Name: "mpeg_body", Path: "../../examples/models/mpeg_body.qos"}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Drain)
	if d.decideLimit < 2<<20 {
		t.Fatalf("decide limit %d B is too small to show a declared-length allocation", d.decideLimit)
	}
	h := d.Handler()
	perRequest := bytesPerRun(5, func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(`{"items":[]}`))
		r.ContentLength = d.decideLimit
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			t.Fatalf("decide: HTTP %d: %s", rec.Code, rec.Body)
		}
	})
	t.Logf("bytes per short decide declaring %d B: %d", d.decideLimit, perRequest)
	if perRequest >= 1<<20 {
		t.Fatalf("short decide declaring %d B allocates %d B per request, want under 1 MiB", d.decideLimit, perRequest)
	}
}

// TestQosdDecideScratchBound: a decide scratch whose body or decoded
// items and costs grew past maxFirstRead is not put back in the pool;
// one within it is.
func TestQosdDecideScratchBound(t *testing.T) {
	d, _ := newTestDaemon(t, nil)
	// costs returns a plain body with n costs in one item.
	costs := func(n int) []byte {
		return []byte(`{"items":[{"stream":1,"costs":[` + strings.Repeat("1,", n-1) + `1]}]}`)
	}
	for _, tc := range []struct {
		name string
		grow func(*decideScratch)
		kept bool
	}{
		{"small", func(sc *decideScratch) { sc.body = make([]byte, 0, 8<<10) }, true},
		{"body at the limit", func(sc *decideScratch) { sc.body = make([]byte, 0, maxFirstRead) }, true},
		{"body over the limit", func(sc *decideScratch) { sc.body = make([]byte, 0, maxFirstRead+1) }, false},
		{"costs over the limit", func(sc *decideScratch) {
			var req api.DecideRequest
			if err := sc.dec.Decode(costs(maxFirstRead/8+1), &req); err != nil || len(req.Items) != 1 {
				t.Fatalf("decode: %d items, %v", len(req.Items), err)
			}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A pool may drop what it is given (the race detector's
			// does so at random), so a kept scratch need only come
			// back once in many tries; a dropped one never may.
			for try := 0; try < 100; try++ {
				sc := d.getScratch()
				tc.grow(sc)
				d.putScratch(sc)
				got := d.getScratch()
				if got == sc && !tc.kept {
					t.Fatalf("scratch with a %d B body and %d B of items and costs was put back",
						cap(sc.body), sc.dec.Retained())
				}
				if got == sc {
					return
				}
			}
			if tc.kept {
				t.Fatal("scratch within the bound never came back from the pool")
			}
		})
	}
}

// TestQosdDecideConcurrentStreams (run with -race): goroutines serving
// churn-shaped decides on disjoint streams at once, each request from a
// pooled scratch, get every item served: HTTP 200, one level in range
// per action and no miss.
func TestQosdDecideConcurrentStreams(t *testing.T) {
	d, ids := churnFleet(t)
	h := d.Handler()
	levels := len(d.models["mpeg_body"].rt.System().Levels)
	const workers, requests = 4, 25
	per := len(ids) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		bodies := churnBodies(t, d, ids[w*per:(w+1)*per], per, 4, int64(w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(bodies[i%len(bodies)])))
				var dr api.DecideResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil || rec.Code != http.StatusOK || len(dr.Results) != per {
					t.Errorf("decide: HTTP %d, %v: %s", rec.Code, err, rec.Body)
					return
				}
				for _, r := range dr.Results {
					if r.Code != api.DecideOK || r.Misses != 0 || len(r.Levels) != d.maxActions {
						t.Errorf("stream %d: code %d (%s), %d misses, %d levels", r.Stream, r.Code, r.Error, r.Misses, len(r.Levels))
						return
					}
					for _, l := range r.Levels {
						if l < 0 || l >= levels {
							t.Errorf("stream %d: level %d outside [0, %d)", r.Stream, l, levels)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestQosdBodyLimits: a decide body at the limit computed from MaxBatch
// and the schedule is decoded, one byte more is refused with 413, and
// so is an admit body past its fixed bound.
func TestQosdBodyLimits(t *testing.T) {
	d, srv := newTestDaemon(t, nil)
	st := admitN(t, srv, 1)[0]
	body, err := json.Marshal(api.DecideRequest{Items: []api.DecideItem{{Stream: st.ID, Costs: []int64{20, 20}}}})
	if err != nil {
		t.Fatal(err)
	}
	post := func(ep string, body []byte) int {
		resp, err := http.Post(srv.URL+ep, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// pad fills body to n bytes with whitespace before its closing
	// brace, inside the first JSON value, which is all a decoder reads.
	pad := func(body []byte, n int64) []byte {
		last := len(body) - 1
		return append(append(body[:last:last], bytes.Repeat([]byte{' '}, int(n)-len(body))...), body[last])
	}
	if code := post("/v1/decide", pad(body, d.decideLimit)); code != http.StatusOK {
		t.Fatalf("decide body of %d bytes, the limit: HTTP %d", d.decideLimit, code)
	}
	if code := post("/v1/decide", pad(body, d.decideLimit+1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("decide body one byte over the limit: HTTP %d", code)
	}
	if code := post("/v1/admit", pad([]byte(`{"streams":1}`), maxSmallBody+1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("admit body past %d bytes: HTTP %d", maxSmallBody, code)
	}
}

// TestQosdDecideStopsAtMaxBatch: a decide body of MaxBatch+1 items, and
// one of {} items up to the body limit, in the scanned shape and in one
// that falls back to encoding/json, are refused with 400 and the batch
// message; MaxBatch items are served.
func TestQosdDecideStopsAtMaxBatch(t *testing.T) {
	d, srv := newTestDaemon(t, func(c *Config) { c.MaxBatch = 8 })
	st := admitN(t, srv, 1)[0]
	item := fmt.Sprintf(`{"stream":%d,"costs":[20,20]}`, st.ID)
	bodyOf := func(key, item string, n int) []byte {
		return []byte(`{"` + key + `":[` + strings.TrimSuffix(strings.Repeat(item+",", n), ",") + `]}`)
	}
	post := func(body []byte) (int, string) {
		resp, err := http.Post(srv.URL+"/v1/decide", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er api.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er.Error
	}
	most := (int(d.decideLimit) - len(`{"Items":[{}]}`)) / len(`,{}`)
	for _, key := range []string{"items", "Items"} {
		if code, msg := post(bodyOf(key, item, 8)); code != http.StatusOK {
			t.Fatalf("%q: 8 items: HTTP %d %s", key, code, msg)
		}
		for _, body := range [][]byte{bodyOf(key, item, 9), bodyOf(key, "{}", most)} {
			if code, msg := post(body); code != http.StatusBadRequest || msg != "at most 8 items per batch" {
				t.Fatalf("%q: %d-byte body: HTTP %d %q", key, len(body), code, msg)
			}
		}
	}
}

// TestQosdLeaseRevocation: a client that admits and then goes silent is
// reaped — its next decide gets 410, its share returns to the pool, and
// the stream vanishes from the registry.
func TestQosdLeaseRevocation(t *testing.T) {
	d, srv := newTestDaemon(t, func(c *Config) {
		c.LeaseEpochs = 1
		c.EpochInterval = time.Millisecond
	})
	d.StartReaper() // joined by Drain in the test cleanup

	silent := admitN(t, srv, 2)
	// Bounded poll until the reaper has revoked both silent streams —
	// no wall-clock guess about how many epochs silence takes.
	deadline := time.Now().Add(10 * time.Second)
	for d.models["chain"].budget.Stats().Revoked < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("reaper never revoked the silent streams: %+v", d.models["chain"].budget.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	var dr api.DecideResponse
	postJSON(t, srv.URL+"/v1/decide", api.DecideRequest{Items: []api.DecideItem{
		{Stream: silent[0].ID}, {Stream: silent[1].ID},
	}}, &dr)
	for i, r := range dr.Results {
		if r.Code != api.DecideRevoked {
			t.Fatalf("silent stream %d: code %d (%s), want 410", i, r.Code, r.Error)
		}
	}
	// Gone from the registry: a retry is 404, not 410.
	postJSON(t, srv.URL+"/v1/decide", api.DecideRequest{Items: []api.DecideItem{{Stream: silent[0].ID}}}, &dr)
	if dr.Results[0].Code != api.DecideUnknown {
		t.Fatalf("revoked stream still registered: code %d", dr.Results[0].Code)
	}
	// The reclaimed shares admit a fresh client immediately.
	admitN(t, srv, 2)

	var cr api.CapacityResponse
	resp, err := http.Get(srv.URL + "/v1/capacity")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cr.Models[0].Revoked < 2 {
		t.Fatalf("revocations not counted: %+v", cr.Models[0])
	}
}

// TestQosdReapReleasesRevokedSessions: an epoch that revokes a silent
// stream's lease also tears the stream down, so its session leaves the
// runtime and the stream leaves qosd_streams_active at once, not at its
// client's next request. The client's next decide and release are
// answered byte for byte as by a daemon whose epochs only rebalance,
// which tears a revoked stream down when its client next decides.
func TestQosdReapReleasesRevokedSessions(t *testing.T) {
	boot := func() *Daemon {
		cfg := churnConfig(t)
		cfg.LeaseEpochs = 1
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Drain)
		return d
	}
	serve := func(d *Daemon, method, target, body string) string {
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return fmt.Sprintf("%d %s", rec.Code, rec.Body.Bytes())
	}
	reaped, lazy := boot(), boot()
	for _, d := range []*Daemon{reaped, lazy} {
		if reply := serve(d, http.MethodPost, "/v1/admit", `{"streams":3}`); !strings.HasPrefix(reply, "200 ") {
			t.Fatalf("admit: %s", reply)
		}
	}
	for i := 0; i < 5; i++ {
		reaped.epoch()
		lazy.models["mpeg_body"].budget.Rebalance()
	}
	m := reaped.models["mpeg_body"]
	if bs := m.budget.Stats(); bs.Revoked != 3 {
		t.Fatalf("revoked %d streams, want 3", bs.Revoked)
	}
	if n, active := len(reaped.streams), m.rt.Stats().ActiveSessions; n != 0 || active != 0 {
		t.Fatalf("after the reaping epochs: %d streams registered, %d sessions active, want 0 and 0", n, active)
	}
	metrics := serve(reaped, http.MethodGet, "/metrics", "")
	for _, line := range []string{"\nqosd_streams_active 0\n", "\nqosd_model_sessions_active{model=\"mpeg_body\"} 0\n"} {
		if !strings.Contains(metrics, line) {
			t.Fatalf("/metrics lacks %q", line)
		}
	}

	script := []struct{ target, body string }{
		{"/v1/decide", `{"items":[{"stream":1},{"stream":2,"load":0.5},{"stream":1}]}`},
		{"/v1/release", `{"stream":3}`},
		{"/v1/decide", `{"items":[{"stream":1},{"stream":2},{"stream":3}]}`},
		{"/v1/release", `{"stream":1}`},
	}
	for _, step := range script {
		got, want := serve(reaped, http.MethodPost, step.target, step.body), serve(lazy, http.MethodPost, step.target, step.body)
		if got != want {
			t.Fatalf("%s %s:\nreaped: %s\nlazy:   %s", step.target, step.body, got, want)
		}
	}
	if !strings.Contains(serve(reaped, http.MethodPost, "/v1/decide", `{"items":[{"stream":2}]}`), `"code":404`) {
		t.Fatal("a tombstone answered a second decide")
	}
	if len(reaped.reaped) != 0 {
		t.Fatalf("%d tombstones left after every client was answered", len(reaped.reaped))
	}
}

// TestQosdTombstonesExpire: the tombstone of a reaped stream whose
// client never returns goes tombstoneLeases lease windows after the
// reaping, and the client's id is then unknown (404).
func TestQosdTombstonesExpire(t *testing.T) {
	const k = 2
	d, srv := newTestDaemon(t, func(c *Config) { c.LeaseEpochs = k })
	silent := admitN(t, srv, 1)
	reapedAt := 0
	for e := 1; e <= (tombstoneLeases+1)*k+1; e++ {
		d.epoch()
		d.mu.Lock()
		n := len(d.reaped)
		d.mu.Unlock()
		switch {
		case reapedAt == 0 && n == 1:
			reapedAt = e
		case reapedAt != 0 && n == 0:
			if e-reapedAt != tombstoneLeases*k {
				t.Fatalf("tombstone made at epoch %d went at epoch %d, want %d later", reapedAt, e, tombstoneLeases*k)
			}
		}
	}
	if reapedAt == 0 {
		t.Fatal("the silent stream was never reaped")
	}
	if n := len(d.reaped); n != 0 {
		t.Fatalf("%d tombstones left %d epochs after the reaping", n, (tombstoneLeases+1)*k+1-reapedAt)
	}
	var dr api.DecideResponse
	postJSON(t, srv.URL+"/v1/decide", api.DecideRequest{Items: []api.DecideItem{{Stream: silent[0].ID}}}, &dr)
	if dr.Results[0].Code != api.DecideUnknown {
		t.Fatalf("a client back after its tombstone went: code %d, want 404", dr.Results[0].Code)
	}
}

// TestQosdMetricsParse drives some traffic and checks every /metrics
// line is well-formed Prometheus text ("name value", "name{labels}
// value", or a # comment) and the load-bearing series are present.
func TestQosdMetricsParse(t *testing.T) {
	_, srv := newTestDaemon(t, nil)
	streams := admitN(t, srv, 2)
	postJSON(t, srv.URL+"/v1/decide", api.DecideRequest{Items: []api.DecideItem{
		{Stream: streams[0].ID, Load: 0.5}, {Stream: streams[1].ID, Load: 0.5},
	}}, nil)
	postJSON(t, srv.URL+"/v1/release", api.ReleaseRequest{Stream: 12345}, nil) // a 404 to count

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var value float64
		// Split the sample into series name (with optional {labels})
		// and value; labels may contain spaces inside quotes, so split
		// on the last space.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("metrics line %q: no value", line)
		}
		name, valueStr := line[:i], line[i+1:]
		if _, err := fmt.Sscanf(valueStr, "%g", &value); err != nil {
			t.Fatalf("metrics line %q: bad value: %v", line, err)
		}
		if open := strings.Count(name, "{"); open != strings.Count(name, "}") || open > 1 {
			t.Fatalf("metrics line %q: malformed labels", line)
		}
	}
	for _, want := range []string{
		"qosd_uptime_seconds ",
		"qosd_goroutines ",
		"qosd_streams_active 2",
		`qosd_model_cycles_total{model="chain"} 2`,
		`qosd_model_misses_total{model="chain"} 0`,
		`qosd_budget_streams{model="chain"} 2`,
		`qosd_controller_decisions_total{model="chain"} 4`,
		`qosd_http_requests_total{endpoint="admit",code="200"} 1`,
		`qosd_http_requests_total{endpoint="release",code="404"} 1`,
		`qosd_http_request_duration_seconds_count{endpoint="decide"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q\n%s", want, body)
		}
	}
}

// TestQosdHandlerBuiltOnce serves one daemon through two Handler()
// values: both are the daemon itself, both serve, and their requests
// count into one set of /metrics counters.
func TestQosdHandlerBuiltOnce(t *testing.T) {
	d, srv := newTestDaemon(t, nil)
	h := d.Handler()
	if h != d.Handler() {
		t.Fatal("Handler() returned a second handler")
	}
	srv2 := httptest.NewServer(h)
	defer srv2.Close()
	admitN(t, srv, 1)
	admitN(t, srv2, 1)
	resp, err := http.Get(srv2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"qosd_streams_active 2",
		`qosd_http_requests_total{endpoint="admit",code="200"} 2`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("/metrics missing %q\n%s", want, buf.String())
		}
	}
}

// TestQosdUncleanPathsNotFound: the daemon routes only its six exact
// paths. Any other path, an unclean spelling of a route included, is
// answered 404 and counted under no endpoint in /metrics.
func TestQosdUncleanPathsNotFound(t *testing.T) {
	d, _ := newTestDaemon(t, nil)
	h := d.Handler()
	for _, target := range []string{"//v1/decide", "/v1/admit/", "/v1/./capacity", "/v1/../healthz", "/metrics/", "/", "/v1"} {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(`{"items":[]}`)))
			if rec.Code != http.StatusNotFound || rec.Body.String() != "404 page not found\n" {
				t.Errorf("%s %s: HTTP %d: %q", method, target, rec.Code, rec.Body)
			}
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(rec.Body.String(), "qosd_http_requests_total") {
		t.Fatalf("/metrics counted a request to an unknown path:\n%s", rec.Body)
	}
	for _, name := range endpointNames {
		if want := fmt.Sprintf("qosd_http_request_duration_seconds_count{endpoint=%q} 0\n", name); !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestQosdDrainUnderFire (run with -race) hammers decide from several
// goroutines while the daemon drains: no decide may race the teardown,
// every post-drain request is refused, and every grant is back in the
// pool when Drain returns.
func TestQosdDrainUnderFire(t *testing.T) {
	d, srv := newTestDaemon(t, nil)
	streams := admitN(t, srv, 2)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Each hammer goroutine signals after its first decide completes, so
	// the drain below provably starts under fire instead of after a
	// wall-clock guess.
	started := make(chan struct{}, len(streams))
	for _, s := range streams {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			first := true
			for {
				select {
				case <-stop:
					return
				default:
				}
				var dr api.DecideResponse
				code, _ := postJSON(t, srv.URL+"/v1/decide",
					api.DecideRequest{Items: []api.DecideItem{{Stream: id, Load: 0.5}}}, &dr)
				if first {
					started <- struct{}{}
					first = false
				}
				if code == http.StatusServiceUnavailable {
					return // drain won
				}
				r := dr.Results[0]
				switch r.Code {
				case api.DecideOK:
					if r.Misses != 0 {
						t.Errorf("stream %d missed %d deadlines", id, r.Misses)
						return
					}
				case api.DecideUnknown:
					return // drain released it under us
				default:
					t.Errorf("stream %d: unexpected code %d (%s)", id, r.Code, r.Error)
					return
				}
			}
		}(s.ID)
	}
	for range streams {
		<-started // every hammer goroutine has a decide through
	}
	d.Drain()
	close(stop)
	wg.Wait()

	// Post-drain surface: healthz and the mutating endpoints refuse.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: HTTP %d", resp.StatusCode)
	}
	if code, _ := postJSON(t, srv.URL+"/v1/admit", api.AdmitRequest{}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("admit while drained: HTTP %d", code)
	}
	if code, _ := postJSON(t, srv.URL+"/v1/decide", api.DecideRequest{}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("decide while drained: HTTP %d", code)
	}
	// Every share is back in the pool.
	var cr api.CapacityResponse
	resp, err = http.Get(srv.URL + "/v1/capacity")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m := cr.Models[0]; m.Streams != 0 || m.Committed != 0 || m.Granted != 0 {
		t.Fatalf("drain leaked capacity: %+v", m)
	}
}

// TestQosdReaperShutdown (run with -race): Drain stops and joins the
// reaper goroutine — the done channel is closed when Drain returns —
// and 100 boot/drain cycles leak no goroutines. This is the regression
// test behind qoslint's goroutinelife check: a reaper that outlives its
// daemon holds the models and ticks forever.
func TestQosdReaperShutdown(t *testing.T) {
	path := writeTestModel(t)
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		d, err := New(Config{
			Models:        []ModelFile{{Name: "chain", Path: path}},
			Budget:        100,
			LeaseEpochs:   1,
			EpochInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.StartReaper()
		d.StartReaper() // idempotent: no second goroutine to leak
		d.Drain()
		select {
		case <-d.reaperDone:
		default:
			t.Fatal("Drain returned but the reaper goroutine had not exited")
		}
		d.Drain()      // idempotent after the join
		d.StopReaper() // and directly
	}
	// The join is deterministic, so the count settles back to the
	// baseline; the bounded poll only rides out runtime bookkeeping.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d at start, %d after 100 boot/drain cycles",
				base, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQosdConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no models accepted")
	}
	path := writeTestModel(t)
	if _, err := New(Config{Models: []ModelFile{{Name: "a", Path: path}, {Name: "a", Path: path}}}); err == nil {
		t.Fatal("duplicate model name accepted")
	}
	if _, err := New(Config{Models: []ModelFile{{Name: "x", Path: filepath.Join(t.TempDir(), "missing.qos")}}}); err == nil {
		t.Fatal("missing model file accepted")
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}
