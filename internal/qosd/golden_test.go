package qosd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/qosd/api"
)

// TestGoldenReplies holds every reply of a fixed request script to
// testdata/golden/replies.txt: for each request its status, its
// Content-Type and Retry-After headers, and its body. The script runs
// on an in-process Handler() of an mpeg_body daemon on the churn budget
// and covers admission (one stream, the churn fleet of 32, soft,
// weighted, over budget, bad bodies, an unknown model), decide bodies
// (churn-shaped, synthetic load, bad lengths, unknown streams, empty
// and null requests, negative costs, too many items, an overrun that
// falls back, malformed JSON), release, capacity, healthz, an unknown
// path, a wrong method and /metrics, whose uptime, goroutine and
// latency values are masked. Regenerate with
//
//	go test ./internal/qosd -run TestGoldenReplies -update
//
// only for an intended change of the wire surface.
func TestGoldenReplies(t *testing.T) {
	cfg := churnConfig(t)
	cfg.AdmitTimeout = 20 * time.Millisecond
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Drain)
	h := d.Handler()

	var out bytes.Buffer
	serve := func(name, method, target, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		reply := rec.Body.Bytes()
		fmt.Fprintf(&out, "=== %s: %s %s\nstatus: %d\ncontent-type: %s\nretry-after: %s\n",
			name, method, target, rec.Code, rec.Header().Get("Content-Type"), rec.Header().Get("Retry-After"))
		if target == "/metrics" {
			out.Write(maskMetrics(reply))
		} else {
			out.Write(reply)
		}
		if !bytes.HasSuffix(reply, []byte("\n")) {
			out.WriteString("\n\\ no newline at end of body\n")
		}
		return reply
	}
	admitted := func(reply []byte) []uint64 {
		t.Helper()
		var ar api.AdmitResponse
		if err := json.Unmarshal(reply, &ar); err != nil {
			t.Fatalf("admit reply %s: %v", reply, err)
		}
		ids := make([]uint64, len(ar.Streams))
		for i, s := range ar.Streams {
			ids[i] = s.ID
		}
		return ids
	}
	costs := func(f func(a core.ActionID) int64) string {
		n := d.models["mpeg_body"].nActions
		parts := make([]string, n)
		for a := range parts {
			parts[a] = strconv.FormatInt(f(core.ActionID(a)), 10)
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	item := func(id uint64, rest string) string {
		return `{"stream":` + strconv.FormatUint(id, 10) + rest + `}`
	}

	post := http.MethodPost
	one := admitted(serve("admit one stream", post, "/v1/admit", `{"streams":1}`))
	fleet := admitted(serve("admit the churn fleet", post, "/v1/admit", fmt.Sprintf(`{"streams":%d}`, churnStreams)))
	soft := admitted(serve("admit soft", post, "/v1/admit", `{"streams":1,"soft":true}`))
	serve("admit weighted", post, "/v1/admit", `{"model":"mpeg_body","streams":1,"weight":2.5}`)
	serve("admit over budget", post, "/v1/admit", `{"streams":8}`)
	serve("admit negative streams", post, "/v1/admit", `{"streams":-1}`)
	serve("admit bad body", post, "/v1/admit", `{"streams":`)
	serve("admit unknown model", post, "/v1/admit", `{"model":"nope"}`)
	if len(one) != 1 || len(fleet) != churnStreams || len(soft) != 1 {
		t.Fatalf("admitted %d, %d and %d streams", len(one), len(fleet), len(soft))
	}

	sys := d.models["mpeg_body"].rt.System()
	qmin, qmax := sys.QMin(), sys.QMax()
	serve("decide churn body", post, "/v1/decide", string(churnBodies(t, d, fleet, churnItems, 1, 7)[0]))
	serve("decide synthetic load", post, "/v1/decide",
		`{"items":[`+item(one[0], `,"load":0.5`)+","+item(soft[0], `,"load":1`)+","+item(fleet[3], "")+`]}`)
	serve("decide bad length", post, "/v1/decide", `{"items":[`+item(fleet[0], `,"costs":[1,2,3]`)+`]}`)
	serve("decide unknown stream", post, "/v1/decide", `{"items":[`+item(999999, `,"load":0.5`)+`]}`)
	serve("decide empty object", post, "/v1/decide", `{}`)
	serve("decide null", post, "/v1/decide", `null`)
	serve("decide negative cost", post, "/v1/decide", `{"items":[`+item(fleet[1], `,"costs":`+costs(func(a core.ActionID) int64 {
		if a == 5 {
			return -1
		}
		return int64(sys.Cav.At(qmin, a))
	}))+`]}`)
	serve("decide too many items", post, "/v1/decide", `{"items":[{}`+strings.Repeat(`,{}`, d.cfg.MaxBatch)+`]}`)
	serve("decide overrun", post, "/v1/decide", `{"items":[`+item(fleet[2], `,"costs":`+costs(func(a core.ActionID) int64 {
		return 3 * int64(sys.Cwc.At(qmax, a))
	}))+","+item(fleet[4], `,"load":0.25`)+`]}`)
	serve("decide malformed", post, "/v1/decide", `{"items":[`)

	serve("release known", post, "/v1/release", `{"stream":`+strconv.FormatUint(one[0], 10)+`}`)
	serve("release again", post, "/v1/release", `{"stream":`+strconv.FormatUint(one[0], 10)+`}`)
	serve("release unknown", post, "/v1/release", `{"stream":999999}`)
	serve("release bad body", post, "/v1/release", `[`)
	serve("capacity", http.MethodGet, "/v1/capacity", "")
	serve("capacity of a model", http.MethodGet, "/v1/capacity?model=mpeg_body", "")
	serve("capacity of an unknown model", http.MethodGet, "/v1/capacity?model=nope", "")
	serve("healthz", http.MethodGet, "/healthz", "")
	serve("unknown path", http.MethodGet, "/v1/nope", "")
	serve("wrong method", http.MethodGet, "/v1/admit", "")
	serve("wrong method on healthz", post, "/healthz", "")
	serve("metrics", http.MethodGet, "/metrics", "")

	golden.Check(t, "replies.txt", out.Bytes())
	golden.Complete(t, "replies.txt")
}

// maskMetrics replaces the values of the /metrics lines that depend on
// time or on the process rather than on the requests served: uptime,
// goroutines, and the latency histograms' buckets and sums.
func maskMetrics(b []byte) []byte {
	lines := strings.SplitAfter(string(b), "\n")
	for i, line := range lines {
		for _, p := range []string{"qosd_uptime_seconds ", "qosd_goroutines ",
			"qosd_http_request_duration_seconds_bucket{", "qosd_http_request_duration_seconds_sum{"} {
			if strings.HasPrefix(line, p) {
				lines[i] = line[:strings.LastIndexByte(line, ' ')+1] + "<masked>\n"
			}
		}
	}
	return []byte(strings.Join(lines, ""))
}
