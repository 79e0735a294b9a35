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

// readBody reads r's whole body, at most limit bytes, into one buffer
// that starts at the declared Content-Length, capped at maxFirstRead,
// and grows as a longer body arrives.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	n := r.ContentLength
	if n < 0 || n > limit {
		n = 0
	}
	buf := bytes.NewBuffer(make([]byte, 0, min(n, maxFirstRead)+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
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
// queues via AdmitWait up to the daemon's admit timeout; when the
// budget cannot carry the whole batch in time every partial grant is
// rolled back and the client is shed with 429 + Retry-After — admitted
// hard streams never lose reserved capacity to a newcomer.
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
		g, admitErr := m.budget.AdmitWait(ctx, spec)
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

	resp := api.AdmitResponse{Streams: make([]api.StreamInfo, 0, n)}
	for _, g := range grants {
		st := d.register(m, g)
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
	return writeJSON(w, http.StatusOK, resp)
}

// register binds a grant to a fresh session and enters it in the
// stream registry. The session has no observer: its workload, st.cost,
// records the levels, so every cycle runs the observer-free loop.
func (d *Daemon) register(m *model, g *mixer.Grant) *stream {
	st := &stream{id: d.nextID.Add(1), m: m, grant: g, sys: m.rt.System()}
	st.workload = st.cost
	st.sess = m.rt.AcquireBudgeted(g)
	d.mu.Lock()
	d.streams[st.id] = st
	d.mu.Unlock()
	return st
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
	body, err := readBody(w, r, d.decideLimit)
	if err != nil {
		return bodyError(w, err)
	}
	var req api.DecideRequest
	if err := api.DecodeDecideRequest(body, &req); err != nil {
		return bodyError(w, err)
	}
	if len(req.Items) > d.cfg.MaxBatch {
		return writeError(w, http.StatusBadRequest,
			fmt.Sprintf("at most %d items per batch", d.cfg.MaxBatch), 0)
	}
	// Every item's cycle records its levels in one buffer in turn: a
	// cycle runs each action of its schedule once, so it needs
	// maxActions at most, and its result is appended before the next
	// item runs.
	levels := make([]int, 0, d.maxActions)
	// One registry lock resolves the whole batch. A stream released
	// after it is resolved stays unserved: runCycle checks st.gone
	// under st.mu. A batch of up to 32 items resolves into the stack.
	var small [32]*stream
	sts := small[:0]
	d.mu.Lock()
	for i := range req.Items {
		sts = append(sts, d.streams[req.Items[i].Stream])
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
	// The items' controller statistics reach their model's totals once
	// per run of items of one model, not once per item.
	var m *model
	var sum core.ControllerStats
	for i, st := range sts {
		if st != nil && st.m != m {
			if m != nil {
				m.ctrl.fold(&sum)
			}
			m, sum = st.m, core.ControllerStats{}
		}
		res := d.decideOne(&req.Items[i], st, levels, &sum)
		if i > 0 {
			reply = append(reply, ',')
		}
		reply = api.AppendDecideResult(reply, &res)
	}
	if m != nil {
		m.ctrl.fold(&sum)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(reply, "]}\n"...))
	return http.StatusOK
}

// decideOne runs one stream (nil if unknown) through one controlled
// cycle, recording its levels in levels' backing array and adding its
// controller statistics to sum.
func (d *Daemon) decideOne(item *api.DecideItem, st *stream, levels []int, sum *core.ControllerStats) api.DecideResult {
	out := api.DecideResult{Stream: item.Stream}
	if st == nil {
		out.Code = api.DecideUnknown
		out.Error = "unknown stream"
		return out
	}

	st.mu.Lock()
	revoked := st.runCycle(item, levels, &out, sum)
	if revoked {
		d.teardownLocked(st)
	}
	st.mu.Unlock()
	if revoked {
		// Registry cleanup happens after st.mu is dropped: the lock
		// order is Daemon.mu → stream.mu, never the reverse.
		d.mu.Lock()
		delete(d.streams, st.id)
		d.mu.Unlock()
	}
	return out
}

// runCycle executes one cycle under st.mu, filling out, appending the
// chosen levels to levels and adding the cycle's controller statistics
// to sum. It reports whether the stream's lease was revoked (caller
// tears down and drops the registry entry).
func (st *stream) runCycle(item *api.DecideItem, levels []int, out *api.DecideResult, sum *core.ControllerStats) bool {
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
	res, err := st.sess.RunFunc(st.workload)
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

	sum.Decisions += res.Stats.Decisions
	sum.Fallbacks += res.Stats.Fallbacks
	sum.LevelSum += res.Stats.LevelSum
	sum.LevelChanges += res.Stats.LevelChanges
	sum.CandidateEval += res.Stats.CandidateEval

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
