package qosd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/qosd/api"
)

// The churn fleet: qosbench's qosd-churn shape, 32 admitted mpeg_body
// streams on a budget that holds their MinNeed floors plus room for six
// more, served 16 items per request, each item with a 72-entry costs
// vector.
const (
	churnStreams = 32
	churnItems   = 16
)

// churnConfig is an mpeg_body daemon's configuration on the churn
// budget.
func churnConfig(tb testing.TB) Config {
	tb.Helper()
	path := "../../examples/models/mpeg_body.qos"
	probe, err := New(Config{Models: []ModelFile{{Name: "mpeg_body", Path: path}}})
	if err != nil {
		tb.Fatal(err)
	}
	spec := probe.models["mpeg_body"].spec
	probe.Drain()
	return Config{
		Models: []ModelFile{{Name: "mpeg_body", Path: path}},
		Budget: spec.MinNeed*(churnStreams+6) + spec.MinNeed*2/3,
	}
}

// churnFleet boots an mpeg_body daemon with the churn fleet admitted
// and returns it with the admitted stream ids.
func churnFleet(tb testing.TB) (*Daemon, []uint64) {
	tb.Helper()
	d, err := New(churnConfig(tb))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(d.Drain)
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admit",
		bytes.NewReader([]byte(fmt.Sprintf(`{"streams":%d}`, churnStreams)))))
	var ar api.AdmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil || rec.Code != http.StatusOK {
		tb.Fatalf("admit %d: HTTP %d: %s", churnStreams, rec.Code, rec.Body)
	}
	ids := make([]uint64, len(ar.Streams))
	for i, s := range ar.Streams {
		ids[i] = s.ID
	}
	return d, ids
}

// churnBodies encodes n decide requests of items items each, walking
// ids round robin. Each item carries a costs vector drawn in
// [Cav(qmin), Cwc(qmin)], as qosbench draws them: Cwc does not decrease
// with the level, so the costs respect the execution contract at any
// level the controller picks.
func churnBodies(tb testing.TB, d *Daemon, ids []uint64, items, n int, seed int64) [][]byte {
	tb.Helper()
	sys := d.models["mpeg_body"].rt.System()
	q := sys.QMin()
	rng := rand.New(rand.NewSource(seed))
	bodies := make([][]byte, n)
	next := 0
	for i := range bodies {
		req := api.DecideRequest{Items: make([]api.DecideItem, items)}
		for j := range req.Items {
			costs := make([]int64, sys.Graph.Len())
			for a := range costs {
				av := sys.Cav.At(q, core.ActionID(a))
				wc := sys.Cwc.At(q, core.ActionID(a))
				costs[a] = int64(av) + int64(rng.Float64()*float64(int64(wc)-int64(av)))
			}
			req.Items[j] = api.DecideItem{Stream: ids[next%len(ids)], Costs: costs}
			next++
		}
		b, err := json.Marshal(req)
		if err != nil {
			tb.Fatal(err)
		}
		bodies[i] = b
	}
	return bodies
}

// checkServed reports an error unless rec holds an HTTP 200 decide
// reply whose items all read code 200 and 0 misses.
func checkServed(rec *httptest.ResponseRecorder, items int) error {
	reply := rec.Body.Bytes()
	if rec.Code != http.StatusOK {
		return fmt.Errorf("decide: HTTP %d: %s", rec.Code, reply)
	}
	if ok, clean := bytes.Count(reply, []byte(`"code":200,`)), bytes.Count(reply, []byte(`"misses":0,`)); ok != items || clean != items {
		return fmt.Errorf("decide: %d of %d items served, %d without a miss: %s", ok, items, clean, reply)
	}
	return nil
}

// BenchmarkDecideHandler serves churn-shaped decide requests through
// Handler() with httptest: 16 items × 72 costs on 32 admitted mpeg_body
// streams. Its B/op is the handler's allocations plus httptest's
// request and recorder. Any item not served or with a miss fails it.
func BenchmarkDecideHandler(b *testing.B) {
	d, ids := churnFleet(b)
	bodies := churnBodies(b, d, ids, churnItems, 8, 1)
	h := d.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(bodies[i%len(bodies)])))
		if err := checkServed(rec, churnItems); err != nil {
			b.Fatal(err)
		}
	}
}
