package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/platform"
	"repro/internal/qosd"
	"repro/internal/qosd/api"
)

// daemon is a qosd child process serving the model on a loopback port:
// the ladder's socket rung.
type daemon struct {
	cmd  *exec.Cmd
	base string         // http://host:port
	out  sync.WaitGroup // joins the stdout reader
}

// startDaemon boots qosd with the given flags and returns once /healthz
// answers 200.
func startDaemon(ctx context.Context, e *env, flags []string) (*daemon, error) {
	argv := append([]string{"-addr", "127.0.0.1:0", "-model", e.modelPath()}, flags...)
	cmd := exec.Command(e.qosdBin, argv...)
	cmd.Stderr = e.stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start qosd: %w", err)
	}
	d := &daemon{cmd: cmd}
	first := make(chan string, 1)
	d.out.Add(1)
	go func() {
		defer d.out.Done()
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		first <- line
		_, _ = io.Copy(io.Discard, br) // until the child exits
	}()
	// The first line is "qosd: listening on HOST:PORT (1 models)".
	var line string
	select {
	case line = <-first:
	case <-time.After(10 * time.Second):
	}
	const prefix = "qosd: listening on "
	if !strings.HasPrefix(line, prefix) {
		d.stop()
		return nil, fmt.Errorf("qosd did not report its address (got %q)", line)
	}
	addr, _, _ := strings.Cut(strings.TrimPrefix(line, prefix), " ")
	d.base = "http://" + addr

	c := newClient(d.base)
	defer c.close()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if err := ctx.Err(); err != nil {
			d.stop()
			return nil, err
		}
		code, _, err := c.do(http.MethodGet, "/healthz", nil)
		if err == nil && code == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("qosd /healthz not ready: code %d, %v", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM — qosd drains and exits — and waits for the child;
// a child that has not exited after ten seconds is killed.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is reaped by Wait below
	kill := time.AfterFunc(10*time.Second, func() { _ = d.cmd.Process.Kill() })
	defer kill.Stop()
	d.out.Wait()
	return d.cmd.Wait()
}

// client sends requests to qosd for one goroutine: over one keep-alive
// HTTP connection, or, with h set, to a daemon's Handler in this process.
type client struct {
	base string
	hc   *http.Client
	h    http.Handler
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func newHandlerClient(h http.Handler) *client { return &client{h: h} }

func (c *client) close() {
	if c.hc != nil {
		c.hc.CloseIdleConnections()
	}
}

// do sends one request and returns the status and the response body,
// which stays valid until the next call.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	if c.h != nil {
		req := httptest.NewRequest(method, path, rd)
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), nil
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// admit posts one admission and returns the admitted streams; a 429 is
// reported as shed, not as an error.
func (c *client) admit(body []byte) (streams []api.StreamInfo, shed bool, err error) {
	code, resp, err := c.do(http.MethodPost, "/v1/admit", body)
	if err != nil {
		return nil, false, err
	}
	switch code {
	case http.StatusOK:
		var ar api.AdmitResponse
		if err := json.Unmarshal(resp, &ar); err != nil {
			return nil, false, fmt.Errorf("admit reply: %w", err)
		}
		return ar.Streams, false, nil
	case http.StatusTooManyRequests:
		return nil, true, nil
	default:
		return nil, false, fmt.Errorf("admit: HTTP %d: %s", code, resp)
	}
}

func (c *client) release(id uint64) error {
	body, err := json.Marshal(api.ReleaseRequest{Stream: id})
	if err != nil {
		return err
	}
	code, resp, err := c.do(http.MethodPost, "/v1/release", body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("release %d: HTTP %d: %s", id, code, resp)
	}
	return nil
}

// metrics scrapes /metrics into a map from series (name plus labels) to
// value.
func (c *client) metrics() (map[string]float64, error) {
	code, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

func (c *client) capacity() (api.ModelCapacity, error) {
	code, body, err := c.do(http.MethodGet, "/v1/capacity", nil)
	if err != nil {
		return api.ModelCapacity{}, err
	}
	var cr api.CapacityResponse
	if code != http.StatusOK {
		return api.ModelCapacity{}, fmt.Errorf("/v1/capacity: HTTP %d", code)
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		return api.ModelCapacity{}, err
	}
	if len(cr.Models) != 1 {
		return api.ModelCapacity{}, fmt.Errorf("/v1/capacity lists %d models", len(cr.Models))
	}
	return cr.Models[0], nil
}

// Series the checks and the ladder read from /metrics.
const (
	seriesDecisions = `qosd_controller_decisions_total{model="mpeg_body"}`
	seriesMisses    = `qosd_model_misses_total{model="mpeg_body"}`
	seriesRevoked   = `qosd_budget_revoked_total{model="mpeg_body"}`
	seriesDemoted   = `qosd_budget_soft_demoted{model="mpeg_body"}`
	seriesDecideSum = `qosd_http_request_duration_seconds_sum{endpoint="decide"}`
	seriesDecideCnt = `qosd_http_request_duration_seconds_count{endpoint="decide"}`
)

// tally is what one decide-sending goroutine counted.
type tally struct {
	lat                         *chunks
	lag                         *hist
	segs                        []seg
	sent, failed, sloOK         int64
	decisions, levelSum, levelN int64
	traffic                     traffic
	checks                      checks
	lastErr                     error
}

func newTally() *tally { return &tally{lat: newChunks(chunkSize), lag: newHist()} }

func (t *tally) fold(o *outcome, ck *checks) {
	o.decide.merge(t.lat)
	o.lag.merge(t.lag)
	o.attempted += t.sent
	o.failed += t.failed
	o.levelSum += t.levelSum
	o.levelN += t.levelN
	o.traffic.add(t.traffic)
	ck.failures = append(ck.failures, t.checks.failures...)
	if t.lastErr != nil {
		ck.expect(false, "last transport error: %v", t.lastErr)
	}
}

// checkEvery is how often the fleet's decide loops decode and check a
// reply in full: every checkEvery-th request of each connection, starting
// with its first. Decoding a qosd-churn reply costs the generator about
// 300 µs, more than half what the daemon spends on the request, on the
// same two CPUs; checking every reply would make the closed loop measure
// the generator. A reply not decoded is counted as served in full, and
// the end-of-run check that the server's decision counter equals the
// client's count then fails if any of its items was not; the server's
// miss counter must read 0 as well.
const checkEvery = 8

// decide sends one decide body, checks the reply when full is set or
// counts it as served otherwise. It reports whether every item was served
// correctly, and when the round trip ended: latencies end there, so the
// generator's own decoding and checking of the reply are not charged to
// the server.
func (t *tally) decide(c *client, m *model, body reqBody, req int64, full bool, tr *tracer) (ok bool, done time.Time) {
	var dr api.DecideResponse
	id := tr.id()
	t0 := time.Now()
	code, resp, err := c.do(http.MethodPost, "/v1/decide", body.b)
	t1 := time.Now()
	tr.record(0, id, req, "wire.roundtrip", 1, t0, t1)
	t.sent++
	t.traffic.decideReqs++
	t.traffic.reqBytes += int64(len(body.b))
	t.traffic.respBytes += int64(len(resp))
	switch {
	case err != nil:
		t.lastErr = err
	case code != http.StatusOK:
		t.checks.expect(false, "decide: HTTP %d: %s", code, resp)
	case !full:
		t.traffic.decideItems += int64(body.items)
		t.traffic.costItems += int64(body.costs)
		t.decisions += int64(body.items * m.actions)
		ok = true
	default:
		if err := json.Unmarshal(resp, &dr); err != nil {
			t.checks.expect(false, "decide reply: %v", err)
			break
		}
		t.traffic.decideItems += int64(body.items)
		t.traffic.costItems += int64(body.costs)
		dec, lsum, bad := m.checkDecide(&dr, body.items, &t.checks)
		t.decisions += dec
		t.levelSum += lsum
		t.levelN += dec
		ok = bad == 0
	}
	t2 := time.Now()
	tr.record(0, id, req, "wire.check", 1, t1, t2)
	tr.record(id, 0, req, "wire.decide", 1, t0, t2)
	if !ok {
		t.failed++
	}
	return ok, t1
}

// openLoop sends decide requests on a fixed schedule, rate per second,
// from conns goroutines with one connection each, until d of schedule has
// passed. The schedule runs in segments of openSeg, each followed by an
// idle openGap in which every goroutine, on its first request of the next
// segment, times the host-speed reference. Request i is due at
// start + i/rate plus the gaps before it and uses body pick(i). When every
// goroutine was still busy at the due time, the request's latency counts
// from when it was due, so a server stall also delays every request
// scheduled behind it; when a goroutine was idle and waiting for it, the
// latency counts from the send, so the generator's own wake-up lag (kept
// as the lag metric) is not charged to the server. Latency ends with the
// round trip, before the reply is decoded and checked.
func openLoop(dial func() *client, m *model, pick func(i int64) reqBody, rate float64, d, slo time.Duration, tr *tracer) []*tally {
	var next atomic.Int64
	start := time.Now()
	perSeg := int64(rate * openSeg.Seconds())
	out := make([]*tally, conns)
	var wg sync.WaitGroup
	for w := range out {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Allocated here, on this goroutine, so that no two
			// goroutines' counters share a cache line.
			t, ref := newTally(), new(refKernel)
			out[w] = t
			c := dial()
			defer c.close()
			cur, segLat := int64(-1), newHist()
			closeSeg := func() {
				if segLat.n > 0 {
					t.segs = append(t.segs, seg{p50: segLat.quantile(0.5), slow: ref.time()})
					segLat.reset()
				}
			}
			defer closeSeg()
			for {
				i := next.Add(1) - 1
				at := time.Duration(float64(i) / rate * float64(time.Second))
				if at >= d {
					return
				}
				if j := i / perSeg; j != cur {
					closeSeg()
					cur = j
				}
				due := start.Add(at + time.Duration(cur)*openGap)
				from := due
				if time.Now().Before(due) {
					sleepUntil(due)
					from = time.Now()
				}
				t.lag.add(time.Since(due))
				ok, done := t.decide(c, m, pick(i), i, t.sent%checkEvery == 0, tr)
				lat := done.Sub(from)
				t.lat.add(lat)
				segLat.add(lat)
				if ok && lat <= slo {
					t.sloOK++
				}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// sleepUntil blocks the calling goroutine's thread in nanosleep until t.
// The runtime's own timers wake sleepers up to a millisecond late on
// some hosts, which would pace an open loop coarser than its schedule;
// a raw nanosleep is late by tens of microseconds and burns no CPU.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(wait) // no nanosleep: fall back to the runtime's timer
		}
	}
}

// closedLoop runs conns goroutines, each sending its next body as soon as
// the previous reply is in, until d has passed, and timing the host-speed
// reference after each segment when timeRef is set. Goroutine w sends
// bodies[w], bodies[w+conns], ..., so goroutines never share a stream
// when the bodies walk the fleet round robin.
func closedLoop(dial func() *client, m *model, bodies []reqBody, d time.Duration, timeRef bool, tr *tracer) ([]*tally, float64) {
	start := time.Now()
	until := start.Add(d)
	out := make([]*tally, conns)
	var wg sync.WaitGroup
	for w := range out {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ref *refKernel
			if timeRef {
				ref = new(refKernel)
			}
			t, sg := newTally(), newSegmenter(start, ref)
			out[w] = t
			c := dial()
			defer c.close()
			for k := w; ; k += conns {
				before := t.decisions
				t0 := time.Now()
				_, done := t.decide(c, m, bodies[k%len(bodies)], int64(k), t.sent%checkEvery == 0, tr)
				sg.add(done, done.Sub(t0), t.decisions-before)
				if !done.Before(until) {
					sg.close(done)
					t.segs = sg.segs
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return out, time.Since(start).Seconds()
}

// wireRun is the state of one run of a workload served by a qosd daemon
// in this process, through its HTTP Handler.
type wireRun struct {
	e   *env
	w   *workload
	m   *model
	o   *outcome
	ck  *checks
	tr  *tracer
	d   *qosd.Daemon
	c   *client // control client: setup, checks, teardown
	ids []uint64
	ref *refKernel // times the host before each setup
}

// dial returns a client of the daemon's Handler.
func (r *wireRun) dial() *client { return newHandlerClient(r.d.Handler()) }

// setup builds the daemon and admits the fleet nSetups times, timing
// each, and keeps the last one.
func (r *wireRun) setup(ctx context.Context, nSetups int) error {
	body, err := json.Marshal(api.AdmitRequest{Streams: r.w.fleet})
	if err != nil {
		return err
	}
	for i := 0; i < nSetups; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.d != nil {
			r.d.Drain()
			r.d = nil
		}
		r.o.setupSlow = append(r.o.setupSlow, r.ref.time())
		t0 := time.Now()
		d, err := qosd.New(r.w.daemon.config(r.e.modelPath(), r.m.spec))
		if err != nil {
			return err
		}
		d.StartReaper()
		r.d = d
		r.c = r.dial()
		streams, shed, err := r.c.admit(body)
		if err != nil || shed {
			return fmt.Errorf("admit the fleet of %d: shed=%v, %v", r.w.fleet, shed, err)
		}
		r.o.setup = append(r.o.setup, time.Since(t0).Seconds())
		r.ids = r.ids[:0]
		for _, s := range streams {
			r.ids = append(r.ids, s.ID)
		}
	}
	return nil
}

// finish runs the end-of-run checks against the server's own counters,
// releases the fleet, checks the drained capacity, reads the peak RSS and
// drains the daemon.
func (r *wireRun) finish(clientDecisions, silenced int64) error {
	ms, err := r.c.metrics()
	if err != nil {
		return err
	}
	r.ck.expect(ms[seriesDecisions] == float64(clientDecisions),
		"server counted %.0f decisions, client %d", ms[seriesDecisions], clientDecisions)
	r.ck.expect(ms[seriesMisses] == 0, "server counted %.0f deadline misses", ms[seriesMisses])
	r.ck.expect(ms[seriesRevoked] == float64(silenced),
		"server revoked %.0f streams, client silenced %d", ms[seriesRevoked], silenced)
	r.o.revoked = int64(ms[seriesRevoked])
	r.o.softDemoted = int64(ms[seriesDemoted])
	for _, id := range r.ids {
		r.o.attempted++
		r.o.traffic.releaseReqs++
		if err := r.c.release(id); err != nil {
			r.o.failed++
			r.ck.expect(false, "release fleet stream: %v", err)
		}
	}
	capa, err := r.c.capacity()
	if err != nil {
		return err
	}
	r.ck.expect(capa.Streams == 0 && capa.Granted == 0,
		"after drain /v1/capacity shows %d streams, %d granted", capa.Streams, capa.Granted)
	r.o.heapMB = liveHeapMB()
	r.d.Drain()
	r.d = nil
	return nil
}

// abort drains a daemon left running by a failed run.
func (r *wireRun) abort() {
	if r.d != nil {
		r.d.Drain()
	}
}

// bodies builds the workload's decide bodies over the admitted fleet and,
// with -inject-overrun, swaps an overrun into the first one.
func (r *wireRun) bodies() []reqBody {
	rng := platform.NewRNG(r.e.seed)
	b := r.w.bodies(r.m, rng, r.ids)
	if r.e.inject {
		b[0] = r.m.overrunBody(rng, r.ids[0])
	}
	return b
}

// phases runs an unmeasured closed-loop warm-up, the open-loop phase and
// the closed-loop phase over the fleet's bodies and folds them into the
// outcome. It returns the decisions the fleet completed.
func (r *wireRun) phases(bodies []reqBody, openD, closedD time.Duration) int64 {
	warm, _ := closedLoop(r.dial, r.m, bodies, warmUp, false, nil)
	open := openLoop(r.dial, r.m, func(i int64) reqBody { return bodies[i%int64(len(bodies))] }, r.w.rate, openD, r.w.slo, r.tr)
	closed, secs := closedLoop(r.dial, r.m, bodies, closedD, true, r.tr)
	var total int64
	for _, t := range warm {
		total += t.decisions
		t.lat = newChunks(chunkSize)
		t.fold(r.o, r.ck)
	}
	for _, t := range open {
		r.o.sloOK += t.sloOK
		r.o.sloTried += t.sent
		r.o.latSegs = append(r.o.latSegs, t.segs)
		total += t.decisions
		t.fold(r.o, r.ck)
	}
	r.o.closedSecs = secs
	for _, t := range closed {
		r.o.rateSegs = append(r.o.rateSegs, t.segs)
		r.o.decisions += t.decisions
		total += t.decisions
		// Closed-loop latencies are not the SLO population.
		t.lat = newChunks(chunkSize)
		t.fold(r.o, r.ck)
	}
	return total
}

// runWire runs a workload against a qosd daemon in process: the fleet's decide
// traffic, open loop then closed loop, with the workload's admission
// client, if it has one, running beside it the whole time. Half the
// setups run before the measured phases and half after, so setup_s
// samples the host at both ends of the run.
func runWire(ctx context.Context, e *env, w *workload, d time.Duration, nSetups int, tr *tracer, ck *checks) (*outcome, error) {
	m, err := loadModel(e.modelPath())
	if err != nil {
		return nil, err
	}
	r := &wireRun{e: e, w: w, m: m, o: newOutcome(), ck: ck, tr: tr, ref: new(refKernel)}
	r.o.sloLimit = w.slo
	defer r.abort()
	if err := r.setup(ctx, (nSetups+1)/2); err != nil {
		return nil, err
	}
	bodies := r.bodies()

	// Admission latency, like decide latency, is measured in the
	// open-loop phase; the admission client keeps running through the
	// closed-loop phase as background churn.
	var ad *admitter
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if w.admission != nil {
		now := time.Now()
		ad = &admitter{admission: w.admission, dial: r.dial, m: m, seed: e.seed, tr: tr,
			measureUntil: now.Add(warmUp + d*11/20),
			silenceUntil: now.Add(d*9/10 - time.Second)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ad.run(stop)
		}()
	}
	decisions := r.phases(bodies, d*11/20, d*7/20)
	close(stop)
	wg.Wait()

	var silenced int64
	if ad != nil {
		for _, l := range ad.lanes {
			r.o.admit.merge(l.lat)
			r.o.admits += l.admits
			r.o.shed += l.shed
			r.o.queued += l.queued
			silenced += l.silenced
			decisions += l.tally.decisions
			l.tally.fold(r.o, ck)
		}
	}
	if err := r.finish(decisions, silenced); err != nil {
		return nil, err
	}
	if err := r.setup(ctx, nSetups/2); err != nil {
		return nil, err
	}
	return r.o, nil
}

// admission is a wire workload's admission client. Each of its lanes, a
// goroutine with its own connection, starts one burst per period: it
// admits a seeded number of streams in [minBurst, maxBurst], hard and
// soft in turn, runs the admitted burst for cycles decides, holds it for
// a seeded time in [minHold, maxHold) and releases it. Every silence-th
// burst of a lane (0: none) leaves one seeded stream silent instead, for
// the reaper to revoke. An admission that does not fit queues in
// AdmitWait until another lane's release or a revocation frees room, or
// until the admit timeout sheds it with 429.
type admission struct {
	lanes              int
	period             time.Duration
	minBurst, maxBurst int
	minHold, maxHold   time.Duration
	cycles             int
	silence            int
}

// queuedAfter is how long an admission must take to count as queued: a
// admit that fits answers in well under a millisecond, and
// AdmitWait's first backoff is one millisecond.
const queuedAfter = 2 * time.Millisecond

// admitter runs an admission schedule beside the decide traffic.
type admitter struct {
	*admission
	dial         func() *client
	m            *model
	seed         uint64
	tr           *tracer
	measureUntil time.Time // admissions after this are sent but not measured
	silenceUntil time.Time // no stream is silenced after this, so all are reaped before the end

	lanes []*lane
}

// lane is what one admission goroutine drew and counted.
type lane struct {
	rng   *platform.RNG
	tally *tally
	lat   *chunks

	// admits, shed and queued count the measured admissions: all of
	// them, those shed, and those admitted after queueing.
	admits, shed, queued, silenced int64
}

func (ad *admitter) run(stop <-chan struct{}) {
	start := time.Now()
	ad.lanes = make([]*lane, ad.admission.lanes)
	var wg sync.WaitGroup
	for i := range ad.lanes {
		l := &lane{rng: platform.NewRNG(ad.seed*7919 + 17 + uint64(i)), tally: newTally(), lat: newChunks(chunkSize)}
		ad.lanes[i] = l
		// The lanes start a fraction of a period apart, so their bursts
		// interleave.
		first := start.Add(ad.period * time.Duration(i) / time.Duration(len(ad.lanes)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			ad.runLane(l, first, stop)
		}()
	}
	wg.Wait()
}

// runLane starts burst k at first + k×period, or at once when the lane
// is behind, until stop is closed.
func (ad *admitter) runLane(l *lane, first time.Time, stop <-chan struct{}) {
	c := ad.dial()
	defer c.close()
	for k := 0; ; k++ {
		time.Sleep(time.Until(first.Add(time.Duration(k) * ad.period)))
		select {
		case <-stop:
			return
		default:
		}
		ad.burst(c, l, k)
	}
}

func (ad *admitter) burst(c *client, l *lane, k int) {
	// Every burst draws the same four values whatever happens to it, so
	// a lane's inputs depend on the seed alone.
	size := ad.minBurst + l.rng.Intn(ad.maxBurst-ad.minBurst+1)
	hold := ad.minHold + time.Duration(l.rng.Float64()*float64(ad.maxHold-ad.minHold))
	pick := l.rng.Intn(size)
	rng := l.rng.Split()

	body, err := json.Marshal(api.AdmitRequest{Streams: size, Soft: k%2 == 1})
	if err != nil {
		l.tally.lastErr = err
		return
	}
	t0 := time.Now()
	streams, shed, err := c.admit(body)
	t1 := time.Now()
	ad.tr.record(0, 0, int64(k), "wire.admit", 1, t0, t1)
	measured := t0.Before(ad.measureUntil)
	if measured {
		l.lat.add(t1.Sub(t0))
		l.admits++
	}
	l.tally.sent++
	l.tally.traffic.admitReqs++
	switch {
	case err != nil:
		l.tally.failed++
		l.tally.lastErr = err
		return
	case shed:
		if measured {
			l.shed++
		}
		return
	}
	if measured && t1.Sub(t0) > queuedAfter {
		l.queued++
	}
	silent := -1
	if ad.silence > 0 && k%ad.silence == ad.silence-1 && time.Now().Before(ad.silenceUntil) {
		silent = pick
		l.silenced++
	}
	live := make([]uint64, 0, len(streams))
	for i, s := range streams {
		if i != silent {
			live = append(live, s.ID)
		}
	}
	for cyc := 0; cyc < ad.cycles && len(live) > 0; cyc++ {
		l.tally.decide(c, ad.m, ad.m.decideBodies(rng, live, len(live), true, 1)[0], int64(k), true, ad.tr)
	}
	time.Sleep(hold)
	for _, id := range live {
		l.tally.sent++
		l.tally.traffic.releaseReqs++
		if err := c.release(id); err != nil {
			l.tally.failed++
			l.tally.checks.expect(false, "admission client release: %v", err)
		}
	}
}
