package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mixer"
	"repro/internal/platform"
	"repro/internal/qosd"
	"repro/internal/qosd/api"
	"repro/internal/session"
)

// rung is one timed operation of the ladder: a batch calls op calls
// times and covers calls×per operations.
type rung struct {
	name       string
	calls, per int
	op         func()
}

// interleave runs one batch of every rung in turn until dur has passed,
// recording one span per batch; a first, untimed round warms pools and
// caches. Taking the rungs in turn lets a drift in the host's speed reach
// every rung alike, so the differences between rungs stay the layers'.
func interleave(tr *tracer, dur time.Duration, rungs ...rung) {
	until := time.Now().Add(dur)
	for round := 0; round == 0 || time.Now().Before(until); round++ {
		for _, r := range rungs {
			t0 := time.Now()
			for i := 0; i < r.calls; i++ {
				r.op()
			}
			if round > 0 {
				tr.record(0, 0, 0, r.name, int64(r.calls*r.per), t0, time.Now())
			}
		}
	}
}

// allocsPer returns heap allocations per call of op over n calls.
func allocsPer(n int, op func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// ladder times calls into each layer from outside, in the order a served
// decision passes through them — core, session, mixer, qosd, the socket —
// and derives each layer's self time by subtracting the rung below. The
// cycle and mixer rungs do not depend on the workload: they replay one
// seeded cost sequence over the embedded fleet and open every cycle with
// the same budget handicap the mixer rung charges, so each rung makes the
// same decisions and their gap is the layer alone. The qosd and socket
// rungs are fed a wire workload's own request bodies.
func ladder(ctx context.Context, e *env, w *workload, d time.Duration, tr *tracer, ck *checks) (map[string]metric, error) {
	pd := d / 40
	if pd < 50*time.Millisecond {
		pd = 50 * time.Millisecond
	}
	if pd > 300*time.Millisecond {
		pd = 300 * time.Millisecond
	}
	m, err := loadModel(e.modelPath())
	if err != nil {
		return nil, err
	}
	rt, err := session.NewRuntime(m.sys)
	if err != nil {
		return nil, err
	}
	f, err := newFleet(e.modelPath(), embeddedStreams)
	if err != nil {
		return nil, err
	}
	defer f.close()
	handicap := f.grants[0].CycleDelay()
	runtime.GC() // leave the workload run's garbage out of the probes

	out := map[string]metric{}
	var bad int64
	work := func() func(core.ActionID, core.Level) core.Cycles {
		return contractWork(m.sys, e.seed+99, false)
	}

	// The cycle rungs, bottom up: a bare controller cycle by cycle and
	// decision by decision, a lean session without a budget source, a
	// budgeted session on the shared budget, and two budgeted sessions
	// cycling at once on two goroutines, on one budget and on two.
	c := rt.Program().NewController()
	var cand, decs, fallbacks int64
	coreWork, decWork, sessWork, budWork := work(), work(), work(), work()
	s := rt.Acquire()
	s.SetLean(true)
	defer rt.Release(s)
	sessionCycle := func() {
		s.Reset()
		s.Preempt(handicap)
		if res, err := s.RunFunc(sessWork); err != nil || res.Misses != 0 {
			bad++
		}
	}
	budgetedCycle := func(s *session.Session, work func(core.ActionID, core.Level) core.Cycles) bool {
		s.Reset()
		res, err := s.RunFunc(work)
		return err == nil && res.Misses == 0
	}
	// The parallel control runs the same two goroutines on sessions of
	// two separate budgets: what contention costs beyond it is the shared
	// budget's, not the CPUs'.
	other, err := newFleet(e.modelPath(), embeddedStreams)
	if err != nil {
		return nil, err
	}
	defer other.close()
	pairs := map[string][2]*session.Session{
		"ladder.mixer.contended_cycle": {f.sess[1], f.sess[2]},
		"ladder.mixer.parallel_cycle":  {f.sess[3], other.sess[0]},
	}
	pairWork := []func(core.ActionID, core.Level) core.Cycles{work(), work()}
	pairBad := make([]int64, len(pairWork))
	// One call runs 64 cycles on each of two goroutines: per operation it
	// is one goroutine's cycle while the other runs beside it.
	pair := func(name string) rung {
		return rung{name, 1, 64, func() {
			var wg sync.WaitGroup
			for i, s := range pairs[name] {
				wg.Add(1)
				go func(i int, s *session.Session) {
					defer wg.Done()
					for k := 0; k < 64; k++ {
						if !budgetedCycle(s, pairWork[i]) {
							pairBad[i]++
						}
					}
				}(i, s)
			}
			wg.Wait()
		}}
	}
	interleave(tr, 5*pd,
		rung{"ladder.core.cycle", 64, 1, func() {
			c.Reset()
			c.Preempt(handicap)
			res, err := core.RunCycleLeanWith(c, coreWork)
			if err != nil || res.Misses != 0 {
				bad++
			}
			cand += int64(res.Stats.CandidateEval)
			decs += int64(res.Stats.Decisions)
			fallbacks += int64(res.Stats.Fallbacks)
		}},
		rung{"ladder.core.decision", 16, m.actions, func() {
			c.Reset()
			c.Preempt(handicap)
			for !c.Done() {
				dec, err := c.Next()
				if err != nil {
					bad++
					return
				}
				c.Completed(decWork(dec.Action, dec.Level))
			}
		}},
		rung{"ladder.session.cycle", 64, 1, sessionCycle},
		rung{"ladder.mixer.budgeted_cycle", 64, 1, func() {
			if !budgetedCycle(f.sess[0], budWork) {
				bad++
			}
		}},
		pair("ladder.mixer.contended_cycle"),
		pair("ladder.mixer.parallel_cycle"),
	)
	bad += pairBad[0] + pairBad[1]
	sessionAllocs := allocsPer(1000, sessionCycle)

	if err := mixerRungs(ctx, f, m, work, pd, tr, &bad); err != nil {
		return nil, err
	}
	// The qosd and socket rungs replay the wire workloads' own request
	// bodies; embedded sends none, so its qosd.* and wire.* metrics are 0.
	var (
		q    handlerStats
		wire wireStats
	)
	if w.wire {
		if q, err = handlerRungs(e, w, m, pd, tr, ck); err != nil {
			return nil, err
		}
		if wire, err = wireRung(ctx, e, w, m, 2*pd, tr, ck); err != nil {
			return nil, err
		}
	}
	ck.expect(bad == 0, "ladder: %d probe cycles failed or missed a deadline", bad)

	op := tr.perOp()
	coreCycle := op["ladder.core.cycle"]
	sessCycle := op["ladder.session.cycle"]
	budgeted := op["ladder.mixer.budgeted_cycle"]
	handler := op["ladder.qosd.handler_decide"] / 1e3
	for k, v := range map[string]metric{
		"core.decision_ns":                  {op["ladder.core.decision"], "ns"},
		"core.cycle_ns":                     {coreCycle, "ns"},
		"core.candidate_evals_per_decision": {frac(cand, decs), "count"},
		"core.fallbacks":                    {float64(fallbacks), "count"},
		"session.cycle_ns":                  {sessCycle, "ns"},
		"session.self_ns":                   {sessCycle - coreCycle, "ns"},
		"session.allocs_per_cycle":          {sessionAllocs, "count"},
		"mixer.budgeted_cycle_ns":           {budgeted, "ns"},
		"mixer.contended_cycle_ns":          {op["ladder.mixer.contended_cycle"], "ns"},
		"mixer.parallel_cycle_ns":           {op["ladder.mixer.parallel_cycle"], "ns"},
		"mixer.self_ns":                     {budgeted - sessCycle, "ns"},
		"mixer.admit_us":                    {op["ladder.mixer.admit"] / 1e3, "us"},
		"mixer.release_us":                  {op["ladder.mixer.release"] / 1e3, "us"},
		"mixer.rebalance_us":                {op["ladder.mixer.rebalance"] / 1e3, "us"},
		"mixer.admit_wait_ms":               {op["ladder.mixer.admit_wait"] / 1e6, "ms"},
		"qosd.handler_decide_us":            {handler, "us"},
		"qosd.handler_admit_us":             {op["ladder.qosd.handler_admit"] / 1e3, "us"},
		"qosd.self_us":                      {handler - q.items*budgeted/1e3, "us"},
		"qosd.codec_decode_us":              {op["ladder.qosd.codec_decode"] / 1e3, "us"},
		"qosd.codec_encode_us":              {op["ladder.qosd.codec_encode"] / 1e3, "us"},
		"qosd.allocs_per_request":           {q.allocs, "count"},
		"qosd.req_bytes":                    {q.reqBytes, "B"},
		"qosd.resp_bytes":                   {q.respBytes, "B"},
		"qosd.server_decide_us":             {wire.serverUs, "us"},
		"wire.overhead_us":                  {wire.clientUs - wire.serverUs, "us"},
	} {
		out[k] = v
	}
	return out, nil
}

// mixerRungs times the budget's admission side: Admit, Release,
// Rebalance and a contended AdmitWait.
func mixerRungs(ctx context.Context, f *fleet, m *model, work func() func(core.ActionID, core.Level) core.Cycles, pd time.Duration, tr *tracer, bad *int64) error {
	var wg sync.WaitGroup
	// Admission and release: bursts of 32 over a budget already holding
	// embeddedStreams grants.
	ab, err := mixer.New(m.spec.MinNeed.MulSat(core.Cycles(embeddedStreams+32)), mixer.Fair)
	if err != nil {
		return err
	}
	base := make([]*mixer.Grant, 0, embeddedStreams)
	for i := 0; i < embeddedStreams; i++ {
		g, err := ab.Admit(m.spec)
		if err != nil {
			return err
		}
		base = append(base, g)
	}
	burst := make([]*mixer.Grant, 32)
	for until := time.Now().Add(pd); time.Now().Before(until) && ctx.Err() == nil; {
		t0 := time.Now()
		for i := range burst {
			if burst[i], err = ab.Admit(m.spec); err != nil {
				return fmt.Errorf("ladder admit: %w", err)
			}
		}
		t1 := time.Now()
		for _, g := range burst {
			g.Release()
		}
		t2 := time.Now()
		tr.record(0, 0, 0, "ladder.mixer.admit", int64(len(burst)), t0, t1)
		tr.record(0, 0, 0, "ladder.mixer.release", int64(len(burst)), t1, t2)
	}
	for _, g := range base {
		g.Release()
	}

	// Rebalance with leasing armed, over the embedded fleet's budget. The
	// window is wide so no grant is revoked while the probe spins.
	f.budget.SetLease(1 << 30)
	interleave(tr, pd, rung{"ladder.mixer.rebalance", 64, 1, f.budget.Rebalance})
	f.budget.SetLease(8)

	// AdmitWait: two goroutines contend for a budget with room for one
	// stream; each waits, runs one budgeted cycle and releases.
	wb, err := mixer.New(m.spec.FullNeed, mixer.Fair)
	if err != nil {
		return err
	}
	waitErrs := make([]error, 2)
	fails := make([]int64, 2)
	for i := range waitErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := work()
			for until := time.Now().Add(pd); time.Now().Before(until); {
				t0 := time.Now()
				g, err := wb.AdmitWait(ctx, m.spec)
				if err != nil {
					waitErrs[i] = err
					return
				}
				tr.record(0, 0, 0, "ladder.mixer.admit_wait", 1, t0, time.Now())
				s := f.rt.AcquireBudgeted(g)
				s.SetLean(true)
				s.Reset()
				if res, err := s.RunFunc(w); err != nil || res.Misses != 0 {
					fails[i]++
				}
				f.rt.Release(s)
				g.Release()
			}
		}(i)
	}
	wg.Wait()
	for _, err := range waitErrs {
		if err != nil {
			return fmt.Errorf("ladder AdmitWait: %w", err)
		}
	}
	*bad += fails[0] + fails[1]
	return nil
}

// handlerStats is what the in-process handler rung measured besides
// spans.
type handlerStats struct {
	items, allocs, reqBytes, respBytes float64
}

// handlerRungs drives qosd's Handler in process through a
// ResponseRecorder — codec, registry and cycles, no socket — with the
// workload's request bodies, and times the JSON codec on the same bodies.
func handlerRungs(e *env, w *workload, m *model, pd time.Duration, tr *tracer, ck *checks) (handlerStats, error) {
	var hs handlerStats
	dmn, err := qosd.New(w.daemon.config(e.modelPath(), m.spec))
	if err != nil {
		return hs, err
	}
	defer dmn.Drain()
	h := dmn.Handler()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	admit := func(n int) ([]uint64, error) {
		body, err := json.Marshal(api.AdmitRequest{Streams: n})
		if err != nil {
			return nil, err
		}
		rec := serve(http.MethodPost, "/v1/admit", body)
		var ar api.AdmitResponse
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("ladder admit: HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
			return nil, err
		}
		ids := make([]uint64, len(ar.Streams))
		for i, s := range ar.Streams {
			ids[i] = s.ID
		}
		return ids, nil
	}
	ids, err := admit(w.fleet)
	if err != nil {
		return hs, err
	}
	bodies := w.bodies(m, platform.NewRNG(e.seed), ids)

	// One checked pass over every body: reply sizes, and the decoded
	// replies the encode rung re-encodes.
	resps := make([]api.DecideResponse, len(bodies))
	for i, b := range bodies {
		rec := serve(http.MethodPost, "/v1/decide", b.b)
		if rec.Code != http.StatusOK {
			return hs, fmt.Errorf("ladder decide: HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
		hs.respBytes += float64(rec.Body.Len())
		hs.reqBytes += float64(len(b.b))
		hs.items += float64(b.items)
		if err := json.Unmarshal(rec.Body.Bytes(), &resps[i]); err != nil {
			return hs, err
		}
		m.checkDecide(&resps[i], b.items, ck)
	}
	n := float64(len(bodies))
	hs.respBytes /= n
	hs.reqBytes /= n
	hs.items /= n

	var failed int
	next := 0
	decide := func() {
		if serve(http.MethodPost, "/v1/decide", bodies[next%len(bodies)].b).Code != http.StatusOK {
			failed++
		}
		next++
	}
	var buf bytes.Buffer
	interleave(tr, 3*pd,
		rung{"ladder.qosd.handler_decide", 16, 1, decide},
		rung{"ladder.qosd.codec_decode", 16, 1, func() {
			var req api.DecideRequest
			if json.Unmarshal(bodies[next%len(bodies)].b, &req) != nil {
				failed++
			}
			next++
		}},
		rung{"ladder.qosd.codec_encode", 16, 1, func() {
			buf.Reset()
			if json.NewEncoder(&buf).Encode(&resps[next%len(resps)]) != nil {
				failed++
			}
			next++
		}},
	)
	hs.allocs = allocsPer(200, decide)
	ck.expect(failed == 0, "ladder: %d in-process requests failed", failed)

	for until := time.Now().Add(pd); time.Now().Before(until); {
		t0 := time.Now()
		got, err := admit(1)
		if err != nil {
			return hs, err
		}
		tr.record(0, 0, 0, "ladder.qosd.handler_admit", 1, t0, time.Now())
		body, err := json.Marshal(api.ReleaseRequest{Stream: got[0]})
		if err != nil {
			return hs, err
		}
		if rec := serve(http.MethodPost, "/v1/release", body); rec.Code != http.StatusOK {
			return hs, fmt.Errorf("ladder release: HTTP %d", rec.Code)
		}
	}
	return hs, nil
}

// wireStats compares the client's and the server's view of one decide.
type wireStats struct {
	clientUs, serverUs float64
}

// wireRung boots a qosd child with the workload's flags and sends the
// workload's bodies on one connection in a closed loop. The client times
// each round trip, up to the last byte of the reply and before decoding
// it; the server's own decide duration comes from its /metrics; the rest
// of the round trip is the socket and net/http on both sides.
func wireRung(ctx context.Context, e *env, w *workload, m *model, dur time.Duration, tr *tracer, ck *checks) (wireStats, error) {
	var ws wireStats
	dmn, err := startDaemon(ctx, e, w.daemon.args(m.spec))
	if err != nil {
		return ws, err
	}
	defer func() { _ = dmn.stop() }() // measurements are complete; a failed drain shows in qosd's stderr
	c := newClient(dmn.base)
	defer c.close()
	admitBody, err := json.Marshal(api.AdmitRequest{Streams: w.fleet})
	if err != nil {
		return ws, err
	}
	streams, shed, err := c.admit(admitBody)
	if err != nil || shed {
		return ws, fmt.Errorf("ladder wire admit: shed=%v, %v", shed, err)
	}
	ids := make([]uint64, len(streams))
	for i, s := range streams {
		ids[i] = s.ID
	}
	bodies := w.bodies(m, platform.NewRNG(e.seed), ids)
	before, err := c.metrics()
	if err != nil {
		return ws, err
	}
	t := newTally()
	var sum time.Duration
	var n int64
	for until := time.Now().Add(dur); time.Now().Before(until) && ctx.Err() == nil; n++ {
		t0 := time.Now()
		_, done := t.decide(c, m, bodies[n%int64(len(bodies))], n, true, nil)
		tr.record(0, 0, n, "ladder.wire.decide", 1, t0, done)
		sum += done.Sub(t0)
	}
	after, err := c.metrics()
	if err != nil {
		return ws, err
	}
	ck.failures = append(ck.failures, t.checks.failures...)
	ck.expect(t.failed == 0 && t.lastErr == nil, "ladder wire: %d decides failed (%v)", t.failed, t.lastErr)
	ck.expect(after[seriesMisses] == 0, "ladder wire: server counted %.0f misses", after[seriesMisses])
	if cnt := after[seriesDecideCnt] - before[seriesDecideCnt]; cnt > 0 {
		ws.serverUs = (after[seriesDecideSum] - before[seriesDecideSum]) / cnt * 1e6
	}
	if n > 0 {
		ws.clientUs = float64(sum) / 1e3 / float64(n)
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return ws, err
		}
		if err := c.release(id); err != nil {
			return ws, err
		}
	}
	return ws, nil
}
