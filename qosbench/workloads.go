package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/mixer"
	"repro/internal/platform"
	"repro/internal/qosd"
	"repro/internal/qosd/api"
	"repro/internal/session"
)

// workload is one named traffic mix. run measures it for d after
// building the serving state nSetups times. A workload served through
// qosd's HTTP API also gives the daemon's configuration and the decide
// request bodies, which the ladder's qosd and socket rungs replay.
type workload struct {
	name  string
	shape string // loop shape with its rate or client count, for the report
	wire  bool   // served through qosd's HTTP API
	run   func(ctx context.Context, e *env, w *workload, d time.Duration, nSetups int, tr *tracer, ck *checks) (*outcome, error)

	fleet int           // streams admitted at setup
	slo   time.Duration // the decide latency limit of slo_frac

	// Wire workloads only: the qosd flags, the open-loop rate in decide
	// requests per second, the decide request bodies over the fleet ids,
	// and the admission client (nil: none).
	daemon    daemonConfig
	rate      float64
	bodies    func(m *model, rng *platform.RNG, ids []uint64) []reqBody
	admission *admission
}

// The frozen workload constants. The open-loop rate in the table below is
// about half of the closed-loop capacity measured on a 2-CPU host at the
// commit that introduced the benchmark; it stays fixed so runs on later
// commits offer the same load.
const (
	embeddedStreams = 16
	// cycleChunk keeps embedded stream-cycle latencies in one histogram per
	// worker: they feed only the report's p99, and a list of chunks growing
	// with throughput would move live_heap_mb.
	cycleChunk = 1 << 62

	churnStreams = 32 // two groups of churnItems
	churnItems   = 16
	churnRoom    = 6 // MinNeed floors the budget holds beyond the fleet

	conns = 2 // decide clients (qosd-churn) or worker goroutines (embedded)

	// warmUp is the unmeasured closed loop before the measured phases.
	warmUp = 300 * time.Millisecond
)

var workloads = map[string]*workload{
	"embedded": {
		name:  "embedded",
		shape: fmt.Sprintf("closed loop, %d goroutines over %d budgeted lean sessions", conns, embeddedStreams),
		run:   runEmbedded,
		fleet: embeddedStreams,
		slo:   100 * time.Microsecond, // per stream-cycle
	},
	"qosd-churn": {
		name: "qosd-churn",
		shape: fmt.Sprintf("qosd Handler in process; open loop 700 req/s then closed loop on %d clients; %d items with costs per request; "+
			"2 churn lanes, each 1 burst of 2-4 streams per 40ms", conns, churnItems),
		wire:  true,
		run:   runWire,
		fleet: churnStreams,
		rate:  700,
		slo:   10 * time.Millisecond,
		// Two lanes each hold a burst of 2 to 4 streams for 5 to 35 ms,
		// against room for churnRoom floors. When the other lane's burst
		// and the silenced streams leave too little room, an admission
		// queues in AdmitWait: it is admitted if capacity frees up within
		// the 20 ms admit timeout, and shed with 429 otherwise. Every 8th
		// burst of a lane leaves one stream silent, holding its floor
		// until the reaper revokes it two to three epochs later.
		admission: &admission{lanes: 2, period: 40 * time.Millisecond, minBurst: 2, maxBurst: 4,
			minHold: 5 * time.Millisecond, maxHold: 35 * time.Millisecond, cycles: 3, silence: 8},
		daemon: daemonConfig{budget: churnBudget, lease: 2, epoch: 100 * time.Millisecond, admitTimeout: 20 * time.Millisecond},
		bodies: func(m *model, rng *platform.RNG, ids []uint64) []reqBody {
			return m.decideBodies(rng, ids, churnItems, true, 64)
		},
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// daemonConfig is a wire workload's qosd configuration, passed to the
// child as its existing flags and to the ladder's in-process daemon as a
// qosd.Config.
type daemonConfig struct {
	// budget sizes the global cycle budget from the model's admission
	// contract.
	budget       func(mixer.StreamSpec) int64
	lease        int
	epoch        time.Duration
	admitTimeout time.Duration
}

// embeddedBudget gives each embedded stream its MinNeed floor plus a
// quarter of the way up to FullNeed.
func embeddedBudget(spec mixer.StreamSpec) int64 {
	perStream := int64(spec.MinNeed) + (int64(spec.FullNeed)-int64(spec.MinNeed))/4
	return perStream * embeddedStreams
}

// churnBudget holds the churn fleet's hard floors plus room for exactly
// churnRoom more: the slack above them stays below one MinNeed.
func churnBudget(spec mixer.StreamSpec) int64 {
	return int64(spec.MinNeed)*(churnStreams+churnRoom) + int64(spec.MinNeed)*2/3
}

func (c daemonConfig) args(spec mixer.StreamSpec) []string {
	return []string{
		"-budget", strconv.FormatInt(c.budget(spec), 10),
		"-lease", strconv.Itoa(c.lease),
		"-epoch", c.epoch.String(),
		"-admit-timeout", c.admitTimeout.String(),
	}
}

func (c daemonConfig) config(modelPath string, spec mixer.StreamSpec) qosd.Config {
	return qosd.Config{
		Models:        []qosd.ModelFile{{Name: "mpeg_body", Path: modelPath}},
		Budget:        core.Cycles(c.budget(spec)),
		LeaseEpochs:   c.lease,
		EpochInterval: c.epoch,
		AdmitTimeout:  c.admitTimeout,
	}
}

// model is the load generator's own copy of the served model: it draws
// costs inside the execution contract and checks replies against it.
type model struct {
	sys     *core.System
	spec    mixer.StreamSpec
	actions int
	levels  int
}

func loadModel(path string) (*model, error) {
	b, err := session.LoadModel(path)
	if err != nil {
		return nil, err
	}
	sys, err := b.Build()
	if err != nil {
		return nil, err
	}
	prog, err := core.NewProgram(sys)
	if err != nil {
		return nil, err
	}
	spec, err := mixer.SpecFromProgram(prog)
	if err != nil {
		return nil, err
	}
	return &model{sys: sys, spec: spec, actions: sys.Graph.Len(), levels: len(sys.Levels)}, nil
}

// overrunCost is charged by -inject-overrun: far above any action's
// worst case, and past every deadline of the model.
const overrunCost = 1000 * core.Mcycle

// costs draws one cycle's costs vector, indexed by action ID, in
// [Cav(qmin), Cwc(qmin)]: Cwc is non-decreasing in the level, so the
// contract holds at whatever level the controller picks.
func (m *model) costs(rng *platform.RNG) []int64 {
	q := m.sys.QMin()
	out := make([]int64, m.actions)
	for a := range out {
		av := m.sys.Cav.At(q, core.ActionID(a))
		wc := m.sys.Cwc.At(q, core.ActionID(a))
		out[a] = int64(av) + int64(rng.Float64()*float64(int64(wc)-int64(av)))
	}
	return out
}

// reqBody is one encoded decide request and what it carries.
type reqBody struct {
	b            []byte
	items, costs int // items, and items with a costs vector
}

// decideBodies encodes n decide requests over ids, items per request,
// walking the ids round robin. With costs each item carries a drawn
// costs vector, otherwise a drawn load in [0, 1].
func (m *model) decideBodies(rng *platform.RNG, ids []uint64, items int, costs bool, n int) []reqBody {
	out := make([]reqBody, n)
	next := 0
	for i := range out {
		req := api.DecideRequest{Items: make([]api.DecideItem, items)}
		for j := range req.Items {
			it := api.DecideItem{Stream: ids[next%len(ids)]}
			next++
			if costs {
				it.Costs = m.costs(rng)
			} else {
				it.Load = rng.Float64()
			}
			req.Items[j] = it
		}
		b, err := json.Marshal(req)
		if err != nil {
			panic(err) // plain structs of numbers always encode
		}
		out[i] = reqBody{b: b, items: items}
		if costs {
			out[i].costs = items
		}
	}
	return out
}

// overrunBody is one decide request whose single item charges
// overrunCost to the first action: a contract violation the miss checks
// must catch.
func (m *model) overrunBody(rng *platform.RNG, id uint64) reqBody {
	c := m.costs(rng)
	c[0] = int64(overrunCost)
	b, err := json.Marshal(api.DecideRequest{Items: []api.DecideItem{{Stream: id, Costs: c}}})
	if err != nil {
		panic(err)
	}
	return reqBody{b: b, items: 1, costs: 1}
}

// checkDecide verifies one decide reply: every item served, one level
// per action, every level index in range, and no deadline miss (every
// stream runs in Hard mode). It returns the decisions and the level-index
// sum it saw, and how many items failed.
func (m *model) checkDecide(resp *api.DecideResponse, items int, ck *checks) (decisions, levelSum, failed int64) {
	if len(resp.Results) != items {
		ck.expect(false, "decide reply has %d results for %d items", len(resp.Results), items)
		return 0, 0, int64(items)
	}
	for i := range resp.Results {
		r := &resp.Results[i]
		if r.Code != api.DecideOK {
			ck.expect(false, "decide item for stream %d: code %d (%s)", r.Stream, r.Code, r.Error)
			failed++
			continue
		}
		ok := len(r.Levels) == m.actions
		for _, l := range r.Levels {
			ok = ok && l >= 0 && l < m.levels
			levelSum += int64(l)
		}
		ck.expect(ok, "stream %d: %d levels, want %d in [0, %d)", r.Stream, len(r.Levels), m.actions, m.levels)
		ck.expect(r.Misses == 0, "stream %d: %d deadline misses on a hard stream", r.Stream, r.Misses)
		if !ok || r.Misses != 0 {
			failed++
		}
		decisions += int64(len(r.Levels))
	}
	return decisions, levelSum, failed
}
