package qosd

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/qosd/api"
	"repro/internal/session"
)

// TestQosdDecideLevelsAreDecisions holds a decide reply to the
// controller it reports on: a recording observer attached to each
// admitted stream's session sees every decision of the served cycle,
// and the reply's levels must be exactly their level indexes, in step
// order, with mean_level their mean. It covers explicit costs,
// synthetic load and costs that force fallbacks, on the chain model and
// on the MPEG body model.
func TestQosdDecideLevelsAreDecisions(t *testing.T) {
	for _, tc := range []struct {
		name, path string
		budget     core.Cycles
	}{
		{"chain", "", 100},
		{"mpeg_body", "../../examples/models/mpeg_body.qos", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.path
			if path == "" {
				path = writeTestModel(t)
			}
			d, err := New(Config{Models: []ModelFile{{Name: tc.name, Path: path}}, Budget: tc.budget})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Drain)
			h := d.Handler()
			serve := func(body []byte) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body)))
				return rec
			}

			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admit",
				bytes.NewReader(mustMarshal(t, api.AdmitRequest{Streams: 2}))))
			var ar api.AdmitResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("admit: HTTP %d: %s", rec.Code, rec.Body)
			}
			recorded := make(map[uint64]*[]int, len(ar.Streams))
			for _, si := range ar.Streams {
				d.mu.Lock()
				st := d.streams[si.ID]
				d.mu.Unlock()
				seq := new([]int)
				recorded[si.ID] = seq
				st.mu.Lock()
				st.sess.Observe(session.FuncObserver{Decision: func(dec core.Decision) {
					*seq = append(*seq, dec.LevelIndex)
				}})
				st.mu.Unlock()
			}

			sys := d.models[tc.name].rt.System()
			nActions := ar.Streams[0].Actions
			rng := rand.New(rand.NewSource(5))
			costs := func(f func(a core.ActionID) int64) []int64 {
				c := make([]int64, nActions)
				for a := range c {
					c[a] = f(core.ActionID(a))
				}
				return c
			}
			qmin, qmax := sys.Levels[0], sys.Levels[len(sys.Levels)-1]
			// Each request pairs two items, one per stream.
			pairs := [][2]api.DecideItem{
				{{Load: 0}, {Load: 1}},
				{{Load: 0.5}, {Load: 0.25}},
				{{Costs: costs(func(a core.ActionID) int64 { return int64(sys.Cav.At(qmin, a)) })},
					{Costs: costs(func(a core.ActionID) int64 {
						av, wc := sys.Cav.At(qmin, a), sys.Cwc.At(qmax, a)
						return int64(av) + rng.Int63n(int64(wc-av)+1)
					})}},
				// Every action costs more than the whole worst case at
				// qmax, so the controller soon runs out of admissible
				// levels and falls back to qmin.
				{{Costs: costs(func(a core.ActionID) int64 { return 4 * int64(sys.Cwc.At(qmax, a)) })},
					{Costs: costs(func(core.ActionID) int64 { return 0 })}},
			}
			fellBack := false
			for i, p := range pairs {
				p[0].Stream, p[1].Stream = ar.Streams[0].ID, ar.Streams[1].ID
				for _, seq := range recorded {
					*seq = (*seq)[:0]
				}
				rec := serve(mustMarshal(t, api.DecideRequest{Items: p[:]}))
				var dr api.DecideResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil || rec.Code != http.StatusOK {
					t.Fatalf("request %d: HTTP %d: %s", i, rec.Code, rec.Body)
				}
				for j, r := range dr.Results {
					if r.Code != api.DecideOK {
						t.Fatalf("request %d item %d: code %d (%s)", i, j, r.Code, r.Error)
					}
					want := *recorded[r.Stream]
					if len(want) != nActions || !slices.Equal(r.Levels, want) {
						t.Fatalf("request %d item %d: levels %v, controller decided %v", i, j, r.Levels, want)
					}
					sum := 0
					for _, l := range want {
						sum += l
					}
					if mean := float64(sum) / float64(len(want)); r.MeanLevel != mean {
						t.Fatalf("request %d item %d: mean_level %v, mean of decided levels %v", i, j, r.MeanLevel, mean)
					}
					fellBack = fellBack || r.Fallbacks > 0
				}
			}
			if !fellBack {
				t.Fatal("no item fell back: the fallback costs do not exercise fallbacks")
			}
		})
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
