package qosd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/mixer"
	"repro/internal/qosd/api"
)

// writeError sends an api.ErrorResponse; retryAfter > 0 additionally
// sets the Retry-After header (load-shedding contract: the client must
// back off at least that long before re-admitting).
func writeError(w http.ResponseWriter, code int, msg string, retryAfter int) int {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	return writeJSON(w, code, api.ErrorResponse{Error: msg, RetryAfter: retryAfter})
}

// maxSmallBody bounds the admit and release bodies, which carry a few
// scalars.
const maxSmallBody = 64 << 10

// bodyError answers a request body that could not be read or decoded:
// 413 past the endpoint's limit, 400 otherwise.
func bodyError(w http.ResponseWriter, err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), 0)
	}
	return writeError(w, http.StatusBadRequest, "bad request body: "+err.Error(), 0)
}

// maxFirstRead caps readBody's first allocation, so a declared
// Content-Length reserves no more than this before its bytes arrive.
const maxFirstRead = 64 << 10

// readBody reads r's whole body, at most limit bytes, into buf's
// capacity. When buf holds less than the declared Content-Length,
// capped at maxFirstRead, it starts from a new buffer of that size; the
// buffer grows as a longer body arrives.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, error) {
	n := r.ContentLength
	if n < 0 || n > limit {
		n = 0
	}
	if first := int(min(n, maxFirstRead)) + bytes.MinRead; cap(buf) < first {
		buf = make([]byte, 0, first)
	}
	b := bytes.NewBuffer(buf[:0])
	_, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return b.Bytes(), err
}

// decideScratch holds one decide request's buffers: the body, which
// then carries the reply, the decoder's items and costs, and the levels
// of the item whose cycle runs. handleDecide takes one from the
// daemon's pool and puts it back once the reply is written, so a
// steady stream of requests allocates none of them.
type decideScratch struct {
	body   []byte
	dec    api.DecideDecoder
	levels []int // capacity maxActions
}

// getScratch takes a decide scratch from the pool, or makes one.
func (d *Daemon) getScratch() *decideScratch {
	if sc, ok := d.scratch.Get().(*decideScratch); ok {
		return sc
	}
	return &decideScratch{
		dec:    api.DecideDecoder{MaxItems: d.cfg.MaxBatch},
		levels: make([]int, 0, d.maxActions),
	}
}

// putScratch returns sc to the pool unless its body or its decoded
// items and costs hold more than maxFirstRead bytes: a pooled scratch
// would keep one large batch's buffers alive for every later request.
func (d *Daemon) putScratch(sc *decideScratch) {
	if cap(sc.body) <= maxFirstRead && sc.dec.Retained() <= maxFirstRead {
		d.scratch.Put(sc)
	}
}

// retryAfterSeconds rounds the admit timeout up to whole seconds for
// the Retry-After header (minimum 1: zero would invite an immediate,
// pointless retry).
func (d *Daemon) retryAfterSeconds() int {
	s := int((d.cfg.AdmitTimeout + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// handleAdmit admits a batch of streams, all-or-nothing. Each admission
// tries the budget at once and queues via AdmitWait only when it is
// full, so the daemon's admit timeout bounds the queueing and never
// sheds a stream the budget has room for. When the budget cannot carry
// the whole batch in time, or the client has gone, every partial grant
// is rolled back and the client is shed with 429 + Retry-After —
// admitted hard streams never lose reserved capacity to a newcomer.
func (d *Daemon) handleAdmit(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "POST required", 0)
	}
	if d.draining.Load() {
		return writeError(w, http.StatusServiceUnavailable, "draining", 0)
	}
	var req api.AdmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSmallBody)).Decode(&req); err != nil {
		return bodyError(w, err)
	}
	m, err := d.lookup(req.Model)
	if err != nil {
		return writeError(w, http.StatusNotFound, err.Error(), 0)
	}
	n := req.Streams
	if n == 0 {
		n = 1
	}
	if n < 0 || n > d.cfg.MaxBatch {
		return writeError(w, http.StatusBadRequest,
			fmt.Sprintf("streams must be in [1, %d]", d.cfg.MaxBatch), 0)
	}
	spec := m.spec
	spec.Soft = req.Soft
	if req.Weight > 0 {
		spec.Weight = req.Weight
	}

	ctx, cancel := context.WithTimeout(r.Context(), d.cfg.AdmitTimeout)
	defer cancel()
	grants := make([]*mixer.Grant, 0, n)
	for i := 0; i < n; i++ {
		var g *mixer.Grant
		admitErr := r.Context().Err()
		if admitErr == nil {
			g, admitErr = m.budget.Admit(spec)
		}
		if errors.Is(admitErr, mixer.ErrBudgetExhausted) {
			g, admitErr = m.budget.AdmitWait(ctx, spec)
		}
		if admitErr != nil {
			for _, got := range grants {
				got.Release()
			}
			if errors.Is(admitErr, context.DeadlineExceeded) ||
				errors.Is(admitErr, context.Canceled) ||
				errors.Is(admitErr, mixer.ErrBudgetExhausted) {
				return writeError(w, http.StatusTooManyRequests,
					fmt.Sprintf("budget exhausted after %d/%d admissions", i, n),
					d.retryAfterSeconds())
			}
			return writeError(w, http.StatusBadRequest, admitErr.Error(), 0)
		}
		grants = append(grants, g)
	}

	// The batch's streams are built first and entered in the registry
	// under one lock. Their sessions have no observer: each workload,
	// st.cost, records the levels, so every cycle runs the observer-free
	// loop.
	resp := api.AdmitResponse{Streams: make([]api.StreamInfo, 0, n)}
	sts := make([]*stream, n)
	for i, g := range grants {
		st := &stream{id: d.nextID.Add(1), m: m, grant: g, sys: m.rt.System()}
		st.sess = m.rt.AcquireBudgeted(g)
		sts[i] = st
		resp.Streams = append(resp.Streams, api.StreamInfo{
			ID:       st.id,
			Model:    m.name,
			Share:    int64(g.Share()),
			Nominal:  int64(spec.Nominal),
			MinNeed:  int64(spec.MinNeed),
			FullNeed: int64(spec.FullNeed),
			Actions:  m.nActions,
		})
	}
	d.mu.Lock()
	for _, st := range sts {
		d.streams[st.id] = st
	}
	d.mu.Unlock()
	return writeOK(w, api.AppendAdmitResponse(nil, &resp))
}

// handleRelease releases one admitted stream and returns its share to
// the pool.
func (d *Daemon) handleRelease(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "POST required", 0)
	}
	var req api.ReleaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSmallBody)).Decode(&req); err != nil {
		return bodyError(w, err)
	}
	d.mu.Lock()
	st, ok := d.streams[req.Stream]
	if ok {
		delete(d.streams, req.Stream)
	} else if tomb, found := d.reaped[req.Stream]; found {
		st, ok = tomb.st, true
		delete(d.reaped, req.Stream)
	}
	d.mu.Unlock()
	if !ok {
		return writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown stream %d", req.Stream), 0)
	}
	st.mu.Lock()
	d.teardownLocked(st)
	st.mu.Unlock()
	return writeJSON(w, http.StatusOK, api.ReleaseResponse{Released: true})
}

// handleDecide serves a batch of control cycles. Items are independent:
// each carries its own status code, so one revoked or unknown stream
// does not fail its batch siblings.
func (d *Daemon) handleDecide(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		return writeError(w, http.StatusMethodNotAllowed, "POST required", 0)
	}
	if d.draining.Load() {
		return writeError(w, http.StatusServiceUnavailable, "draining", 0)
	}
	sc := d.getScratch()
	code := d.decide(w, r, sc)
	// Nothing refers to sc any more: the reply is written, and every
	// stream dropped the costs and levels it was lent when its cycle
	// ended.
	d.putScratch(sc)
	return code
}

// decide serves one decide request from sc's buffers and keeps in sc
// whatever buffer the request grew.
func (d *Daemon) decide(w http.ResponseWriter, r *http.Request, sc *decideScratch) int {
	body, err := readBody(w, r, d.decideLimit, sc.body)
	sc.body = body
	if err != nil {
		return bodyError(w, err)
	}
	var req api.DecideRequest
	if err := sc.dec.Decode(body, &req); errors.Is(err, api.ErrTooManyItems) {
		return writeError(w, http.StatusBadRequest,
			fmt.Sprintf("at most %d items per batch", d.cfg.MaxBatch), 0)
	} else if err != nil {
		return bodyError(w, err)
	}
	// Every item's cycle records its levels in one buffer in turn: a
	// cycle runs each action of its schedule once, so it needs
	// maxActions at most, and its result is appended before the next
	// item runs.
	levels := sc.levels[:0]
	// One registry lock resolves the whole batch, tombstones included.
	// A stream released after it is resolved stays unserved: runCycle
	// checks st.gone under st.mu. A batch of up to 32 items resolves
	// into the stack.
	var small [32]*stream
	sts := small[:0]
	d.mu.Lock()
	for i := range req.Items {
		st := d.streams[req.Items[i].Stream]
		if st == nil {
			st = d.reaped[req.Items[i].Stream].st
		}
		sts = append(sts, st)
	}
	d.mu.Unlock()
	// Nothing decoded points into body, so its buffer carries the
	// reply, laid out as api.AppendDecideResponse writes it, and each
	// result is appended as soon as its cycle ends. A result's
	// mean_level is a mean of level indexes (0 without decisions), so
	// it is always finite. A result without levels takes about 100
	// bytes, so a batch of short items grows the buffer once, not step
	// by step.
	reply := append(slices.Grow(body[:0], len(req.Items)*128), `{"results":[`...)
	for i, st := range sts {
		res := d.decideOne(&req.Items[i], st, levels)
		if i > 0 {
			reply = append(reply, ',')
		}
		reply = api.AppendDecideResult(reply, &res)
	}
	reply = append(reply, "]}\n"...)
	sc.body = reply
	return writeOK(w, reply)
}

// decideOne runs one stream (nil if unknown) through one controlled
// cycle, recording its levels in levels' backing array.
func (d *Daemon) decideOne(item *api.DecideItem, st *stream, levels []int) api.DecideResult {
	out := api.DecideResult{Stream: item.Stream}
	if st == nil {
		out.Code = api.DecideUnknown
		out.Error = "unknown stream"
		return out
	}

	st.mu.Lock()
	revoked := st.runCycle(item, levels, &out)
	if revoked {
		d.teardownLocked(st)
	}
	st.mu.Unlock()
	if revoked {
		// Registry cleanup happens after st.mu is dropped: the lock
		// order is Daemon.mu → stream.mu, never the reverse.
		d.mu.Lock()
		delete(d.streams, st.id)
		delete(d.reaped, st.id)
		d.mu.Unlock()
	}
	return out
}

// runCycle executes one cycle under st.mu, filling out and appending
// the chosen levels to levels; the stream's session counts the cycle in
// its runtime's totals. It reports whether the stream's lease was
// revoked (caller tears down and drops the registry entry).
func (st *stream) runCycle(item *api.DecideItem, levels []int, out *api.DecideResult) bool {
	if st.reaped {
		// A tombstone answers once, with the session's own revocation.
		st.reaped = false
		out.Code = api.DecideRevoked
		out.Error = mixer.ErrGrantRevoked.Error()
		return true
	}
	if st.gone {
		out.Code = api.DecideUnknown
		out.Error = "stream released"
		return false
	}
	if len(item.Costs) != 0 && len(item.Costs) != st.m.nActions {
		out.Code = api.DecideBadCosts
		out.Error = fmt.Sprintf("costs length %d, schedule has %d actions",
			len(item.Costs), st.m.nActions)
		return false
	}
	for _, c := range item.Costs {
		if c < 0 {
			out.Code = api.DecideBadCosts
			out.Error = "negative cost"
			return false
		}
	}

	// Reset renews the lease (Grant.LeaseDelay) and charges the other
	// streams' handicap; once the lease is gone it latches the terminal
	// error instead.
	st.sess.Reset()
	if err := st.sess.Err(); err != nil {
		out.Code = api.DecideRevoked
		out.Error = err.Error()
		return true
	}

	st.costs, st.load, st.levels = item.Costs, min(max(item.Load, 0), 1), levels
	res, err := st.sess.RunFunc(st.cost)
	levels = st.levels
	// The request's costs and levels buffer do not outlive it.
	st.costs, st.levels = nil, nil
	if err != nil {
		if errors.Is(err, mixer.ErrGrantRevoked) {
			out.Code = api.DecideRevoked
			out.Error = err.Error()
			return true
		}
		out.Code = api.DecideFailed
		out.Error = err.Error()
		return false
	}

	out.Code = api.DecideOK
	out.Levels = levels
	out.Elapsed = int64(res.Elapsed)
	out.Misses = res.Misses
	out.Fallbacks = res.Fallbacks
	out.MeanLevel = res.MeanLevel()
	return false
}

// cost is the stream's execution-time function for the cycle runCycle
// is running, under st.mu. The cycle loop calls it once per decision,
// in step order, so it also appends the decided level's index to
// st.levels. Explicit costs are charged verbatim (indexed by schedule
// action ID); otherwise each action costs its per-level average shifted
// load of the way toward the worst case, with load clamped into [0, 1]
// so the synthetic cost always respects the execution contract.
func (st *stream) cost(a core.ActionID, q core.Level) core.Cycles {
	sys := st.sys
	st.levels = append(st.levels, sys.Levels.Index(q))
	if len(st.costs) > 0 {
		return core.Cycles(st.costs[a])
	}
	av := sys.Cav.At(q, a)
	wc := sys.Cwc.At(q, a)
	if wc.IsInf() {
		return av
	}
	return av.AddSat(core.Cycles(st.load * float64(wc.SubSat(av))))
}

// handleCapacity reports every model's admission headroom (or one
// model's, with ?model=).
func (d *Daemon) handleCapacity(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, "GET required", 0)
	}
	names := d.order
	if q := r.URL.Query().Get("model"); q != "" {
		if _, ok := d.models[q]; !ok {
			return writeError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", q), 0)
		}
		names = []string{q}
	}
	resp := api.CapacityResponse{Models: make([]api.ModelCapacity, 0, len(names))}
	for _, name := range names {
		m := d.models[name]
		bs := m.budget.Stats()
		resp.Models = append(resp.Models, api.ModelCapacity{
			Model:  m.name,
			Mode:   m.rt.Program().Mode().String(),
			Policy: bs.Policy.String(),
			Spec: api.SpecInfo{
				Nominal:  int64(m.spec.Nominal),
				MinNeed:  int64(m.spec.MinNeed),
				FullNeed: int64(m.spec.FullNeed),
				Actions:  m.nActions,
			},
			Headroom:      m.budget.Headroom(m.spec),
			Streams:       bs.Streams,
			Total:         int64(bs.Total),
			Committed:     int64(bs.Committed),
			HardCommitted: int64(bs.HardCommitted),
			Granted:       int64(bs.Granted),
			Slack:         int64(bs.Slack),
			Degraded:      bs.Degraded,
			SoftDemoted:   bs.SoftDemoted,
			Revoked:       bs.Revoked,
		})
	}
	return writeJSON(w, http.StatusOK, resp)
}

// handleHealthz answers liveness probes: 200 "ok" while serving, 503
// once draining.
func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, "GET required", 0)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if d.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return http.StatusServiceUnavailable
	}
	fmt.Fprintln(w, "ok")
	return http.StatusOK
}
