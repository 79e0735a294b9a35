// Package qosd is the network-facing QoS control daemon: it loads one
// or more .qos models at startup, owns a session.Runtime and a shared
// mixer.Budget per model, and serves admission, per-cycle control
// decisions and capacity over HTTP+JSON (wire types in
// internal/qosd/api).
//
// The daemon is the paper's Quality Manager lifted to a service
// boundary: remote clients admit streams against the global cycle
// budget, then drive each admitted stream one controlled cycle at a
// time through /v1/decide — every decision on the lean zero-alloc
// controller path. Under overload the daemon sheds load at admission
// (429 + Retry-After) before any admitted hard stream would miss a
// deadline; admitted streams keep their reserved worst-case share no
// matter how many rejected clients are knocking.
//
// Remote liveness rides on the mixer's lease machinery: every decide
// renews the stream's lease (Session.Reset → Grant.LeaseDelay), and a
// reaper goroutine advances the lease epoch on a fixed interval, so a
// client that goes silent is revoked and its share returns to the pool.
// The revoked client learns its fate on the next decide (410) instead
// of silently holding capacity forever.
package qosd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mixer"
	"repro/internal/qosd/api"
	"repro/internal/session"
)

// ModelFile names one .qos model to serve.
type ModelFile struct {
	Name string // registry key; defaults applied by the caller
	Path string
}

// Config configures a Daemon. Zero values pick sane defaults.
type Config struct {
	// Models are the .qos files to load; at least one is required.
	Models []ModelFile
	// Budget is each model's global cycle budget per period; 0 sizes it
	// to carry eight full-quality streams (8 × FullNeed).
	Budget core.Cycles
	// Policy is the slack re-partitioning policy (default Fair).
	Policy mixer.Policy
	// LeaseEpochs arms the liveness lease: a stream idle for this many
	// reaper epochs is revoked. 0 disables revocation (streams hold
	// their share until released).
	LeaseEpochs int
	// EpochInterval is the reaper tick — how often each model's budget
	// is rebalanced and its lease epoch advanced. Default 500ms.
	EpochInterval time.Duration
	// AdmitTimeout bounds how long an admit request queues for capacity
	// before the daemon sheds it with 429. Default 250ms.
	AdmitTimeout time.Duration
	// MaxBatch caps the streams per admit and the items per decide;
	// with the longest served schedule it also bounds the decide body
	// (api.DecideBodyLimit). Default 1024.
	MaxBatch int
}

// model is one served .qos program: its runtime, its shared budget, and
// its aggregate controller statistics.
type model struct {
	name     string
	path     string
	rt       *session.Runtime
	budget   *mixer.Budget
	spec     mixer.StreamSpec
	nActions int
	ctrl     ctrlStats
}

// stream is one admitted remote stream. Its mutex serializes decides
// (the session is single-threaded); the daemon's registry lock is never
// held while a stream lock is, and a stream lock is never held while
// taking the registry lock — the order is always Daemon.mu → stream.mu
// → budget internals.
type stream struct {
	id uint64
	m  *model

	mu    sync.Mutex
	sess  *session.Session
	grant *mixer.Grant
	gone  bool // released or revoked; the registry entry may lag

	// The running cycle's workload: workload is st.cost, bound once at
	// register. It reads the item's costs (nil between cycles) or its
	// clamped synthetic load, and records each decided level's index in
	// levels, the request's levels buffer. sys is the served system,
	// cached at register so cost reads it directly.
	workload func(core.ActionID, core.Level) core.Cycles
	sys      *core.System
	costs    []int64
	load     float64
	levels   []int
}

// Daemon is the qosd server core. Build one with New, mount Handler on
// an http.Server, call StartReaper, and Drain on shutdown — Drain joins
// the reaper goroutine before returning, so a drained daemon leaves
// nothing running.
type Daemon struct {
	cfg    Config
	models map[string]*model
	order  []string // deterministic iteration for /metrics and /v1/capacity

	// maxActions is the longest served schedule; decideLimit bounds a
	// /v1/decide body to MaxBatch items of that schedule.
	maxActions  int
	decideLimit int64

	mu      sync.Mutex
	streams map[uint64]*stream

	// scratch pools the buffers of /v1/decide requests
	// (*decideScratch): see getScratch and putScratch.
	scratch sync.Pool

	// Reaper lifecycle: StartReaper spawns the goroutine once
	// (reaperOn), StopReaper closes reaperStop once (reaperStopped) and
	// joins on reaperDone, which the goroutine closes on exit. The
	// CAS guards make both idempotent and safe to race.
	reaperStop    chan struct{}
	reaperDone    chan struct{}
	reaperOn      atomic.Bool
	reaperStopped atomic.Bool

	nextID   atomic.Uint64
	draining atomic.Bool
	start    time.Time

	mAdmit, mRelease, mDecide, mCapacity, mHealth, mMetrics *endpointMetrics
	mux                                                     *http.ServeMux
}

// ParsePolicy maps a policy name (as printed by mixer.Policy.String) to
// its constant.
func ParsePolicy(name string) (mixer.Policy, error) {
	switch name {
	case "", "fair":
		return mixer.Fair, nil
	case "weighted":
		return mixer.Weighted, nil
	case "greedy":
		return mixer.Greedy, nil
	default:
		return 0, fmt.Errorf("qosd: unknown policy %q (fair, weighted, greedy)", name)
	}
}

// New loads every configured model and returns a serving-ready Daemon.
func New(cfg Config) (*Daemon, error) {
	if len(cfg.Models) == 0 {
		return nil, errors.New("qosd: no models configured")
	}
	if cfg.EpochInterval <= 0 {
		cfg.EpochInterval = 500 * time.Millisecond
	}
	if cfg.AdmitTimeout <= 0 {
		cfg.AdmitTimeout = 250 * time.Millisecond
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	d := &Daemon{
		cfg:        cfg,
		models:     make(map[string]*model, len(cfg.Models)),
		streams:    make(map[uint64]*stream),
		reaperStop: make(chan struct{}),
		reaperDone: make(chan struct{}),
		start:      time.Now(),
		mAdmit:     newEndpointMetrics("admit"),
		mRelease:   newEndpointMetrics("release"),
		mDecide:    newEndpointMetrics("decide"),
		mCapacity:  newEndpointMetrics("capacity"),
		mHealth:    newEndpointMetrics("healthz"),
		mMetrics:   newEndpointMetrics("metrics"),
	}
	for _, mf := range cfg.Models {
		if mf.Name == "" {
			return nil, fmt.Errorf("qosd: model %q has no name", mf.Path)
		}
		if _, dup := d.models[mf.Name]; dup {
			return nil, fmt.Errorf("qosd: duplicate model name %q", mf.Name)
		}
		m, err := loadModel(mf, cfg)
		if err != nil {
			return nil, fmt.Errorf("qosd: model %q: %w", mf.Name, err)
		}
		d.models[mf.Name] = m
		d.order = append(d.order, mf.Name)
		d.maxActions = max(d.maxActions, m.nActions)
	}
	sort.Strings(d.order)
	d.decideLimit = api.DecideBodyLimit(cfg.MaxBatch, d.maxActions)
	d.mux = http.NewServeMux()
	d.mux.HandleFunc("/v1/admit", d.instrument(d.mAdmit, d.handleAdmit))
	d.mux.HandleFunc("/v1/release", d.instrument(d.mRelease, d.handleRelease))
	d.mux.HandleFunc("/v1/decide", d.instrument(d.mDecide, d.handleDecide))
	d.mux.HandleFunc("/v1/capacity", d.instrument(d.mCapacity, d.handleCapacity))
	d.mux.HandleFunc("/healthz", d.instrument(d.mHealth, d.handleHealthz))
	d.mux.HandleFunc("/metrics", d.instrument(d.mMetrics, d.handleMetrics))
	return d, nil
}

func loadModel(mf ModelFile, cfg Config) (*model, error) {
	b, err := session.LoadModel(mf.Path)
	if err != nil {
		return nil, err
	}
	sys, err := b.Build()
	if err != nil {
		return nil, err
	}
	rt, err := session.NewRuntime(sys)
	if err != nil {
		return nil, err
	}
	spec, err := mixer.SpecFromProgram(rt.Program())
	if err != nil {
		return nil, err
	}
	total := cfg.Budget
	if total <= 0 {
		total = spec.FullNeed.MulSat(8)
	}
	budget, err := mixer.New(total, cfg.Policy)
	if err != nil {
		return nil, err
	}
	if cfg.LeaseEpochs > 0 {
		budget.SetLease(cfg.LeaseEpochs)
	}
	return &model{
		name:     mf.Name,
		path:     mf.Path,
		rt:       rt,
		budget:   budget,
		spec:     spec,
		nActions: len(rt.Program().Schedule()),
	}, nil
}

// lookup resolves a model name; "" selects the sole model when exactly
// one is served.
func (d *Daemon) lookup(name string) (*model, error) {
	if name == "" {
		if len(d.order) == 1 {
			return d.models[d.order[0]], nil
		}
		return nil, fmt.Errorf("model name required (serving %d models)", len(d.order))
	}
	m, ok := d.models[name]
	if !ok {
		return nil, fmt.Errorf("unknown model %q", name)
	}
	return m, nil
}

// StartReaper launches the reaper goroutine, which advances every
// model's lease epoch on the configured interval; without it leases
// never expire and silent clients hold capacity forever. Idempotent:
// only the first call spawns. The goroutine runs until StopReaper (or
// Drain, which calls it) signals and joins it.
func (d *Daemon) StartReaper() {
	if !d.reaperOn.CompareAndSwap(false, true) {
		return
	}
	go d.reap()
}

// reap is the reaper goroutine body: tick, rebalance, until the stop
// channel closes. Closing reaperDone on the way out is the join signal
// StopReaper blocks on.
func (d *Daemon) reap() {
	defer close(d.reaperDone)
	t := time.NewTicker(d.cfg.EpochInterval)
	defer t.Stop()
	for {
		select {
		case <-d.reaperStop:
			return
		case <-t.C:
			for _, name := range d.order {
				d.models[name].budget.Rebalance()
			}
		}
	}
}

// StopReaper signals the reaper goroutine to exit and waits until it
// has. Idempotent and safe to race: the stop channel closes exactly
// once, and joining a reaper that never started returns immediately.
func (d *Daemon) StopReaper() {
	if !d.reaperOn.Load() {
		return
	}
	if d.reaperStopped.CompareAndSwap(false, true) {
		close(d.reaperStop)
	}
	<-d.reaperDone
}

// Drain refuses new work (admit and decide return 503, healthz fails),
// stops and joins the reaper goroutine, and releases every admitted
// stream, waiting out in-flight decides. Idempotent; call it after
// http.Server.Shutdown so no request races the teardown.
func (d *Daemon) Drain() {
	d.draining.Store(true)
	d.StopReaper()
	d.mu.Lock()
	sts := make([]*stream, 0, len(d.streams))
	for _, st := range d.streams {
		sts = append(sts, st)
	}
	d.streams = make(map[uint64]*stream)
	d.mu.Unlock()
	for _, st := range sts {
		st.mu.Lock() // waits for an in-flight decide on this stream
		d.teardownLocked(st)
		st.mu.Unlock()
	}
}

// teardownLocked releases a stream's grant and returns its session to
// the runtime pool. Caller holds st.mu.
func (d *Daemon) teardownLocked(st *stream) {
	if st.gone {
		return
	}
	st.gone = true
	st.grant.Release()
	st.m.rt.Release(st.sess)
}

// Handler returns the daemon's HTTP mux, built once by New: every call
// returns the same mux.
func (d *Daemon) Handler() http.Handler { return d.mux }

// instrument wraps a handler that reports the status code it wrote,
// folding every request into the endpoint's counters and latency
// histogram.
func (d *Daemon) instrument(m *endpointMetrics, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		code := h(w, r)
		m.observe(code, time.Since(t0))
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
	return code
}
