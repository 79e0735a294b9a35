package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mixer"
	"repro/internal/platform"
	"repro/internal/session"
)

// fleet is the embedded serving state: a Runtime over the model in Hard
// mode, one Fair shared budget with leasing armed, and one budgeted lean
// session per admitted stream.
type fleet struct {
	rt     *session.Runtime
	budget *mixer.Budget
	grants []*mixer.Grant
	sess   []*session.Session
}

// newFleet builds the whole embedded serving state from the model file:
// parse, tables, NewRuntime, SpecFromProgram, budget, admissions.
func newFleet(path string, streams int) (*fleet, error) {
	b, err := session.LoadModel(path)
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
	budget, err := mixer.New(core.Cycles(embeddedBudget(spec)), mixer.Fair)
	if err != nil {
		return nil, err
	}
	budget.SetLease(8)
	f := &fleet{rt: rt, budget: budget}
	for i := 0; i < streams; i++ {
		g, err := budget.Admit(spec)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("admit stream %d: %w", i, err)
		}
		s := rt.AcquireBudgeted(g)
		s.SetLean(true)
		f.grants = append(f.grants, g)
		f.sess = append(f.sess, s)
	}
	return f, nil
}

func (f *fleet) close() {
	for i, s := range f.sess {
		f.rt.Release(s)
		f.grants[i].Release()
	}
	f.sess, f.grants = nil, nil
}

// draws is one worker's cost generator. It is padded to cache lines of
// its own: its state is written on every action, and two workers'
// generators on one line would slow both by the line's round trips
// between CPUs — a cost of the benchmark, not of the program.
type draws struct {
	_       [64]byte
	rng     platform.RNG
	overrun bool
	_       [64]byte
}

// contractWork returns a workload charging each action a seeded draw in
// [Cav, Cwc] of the level the controller chose — inside the execution
// contract, so Hard mode must never miss. With overrun set, the first
// action it is asked for costs overrunCost instead.
func contractWork(sys *core.System, seed uint64, overrun bool) func(core.ActionID, core.Level) core.Cycles {
	d := &draws{rng: *platform.NewRNG(seed), overrun: overrun}
	return func(a core.ActionID, q core.Level) core.Cycles {
		if d.overrun {
			d.overrun = false
			return overrunCost
		}
		av := sys.Cav.At(q, a)
		wc := sys.Cwc.At(q, a)
		if wc.IsInf() {
			return av
		}
		return av.AddSat(core.Cycles(d.rng.Float64() * float64(wc.SubSat(av))))
	}
}

// worker is one embedded goroutine's share of the closed loop.
type worker struct {
	lat                      *chunks
	segs                     *segmenter
	cycles, decisions, sloOK int64
	levelSum, misses, errs   int64
}

// serve runs sess round robin, one Reset+RunFunc stream-cycle at a time,
// from start until start+d, timing the host-speed reference, unless it
// is nil, after each segment. Its state is allocated on the calling
// goroutine, so two workers' counters do not share cache lines.
func serve(sess []*session.Session, work func(core.ActionID, core.Level) core.Cycles, start time.Time, d, slo time.Duration, ref *refKernel, tr *tracer) worker {
	w := worker{lat: newChunks(cycleChunk), segs: newSegmenter(start, ref)}
	until := start.Add(d)
	for i := 0; ; i++ {
		s := sess[i%len(sess)]
		t0 := time.Now()
		s.Reset()
		res, err := s.RunFunc(work)
		t1 := time.Now()
		el := t1.Sub(t0)
		tr.record(0, 0, int64(i), "embedded.cycle", 1, t0, t1)
		w.lat.add(el)
		w.cycles++
		var n int64
		if err != nil {
			w.errs++
		} else {
			n = int64(res.Stats.Decisions)
			w.decisions += n
			w.levelSum += res.Stats.LevelSum
			w.misses += int64(res.Misses)
			if el <= slo && res.Misses == 0 {
				w.sloOK++
			}
		}
		w.segs.add(t1, el, n)
		if !t1.Before(until) {
			w.segs.close(t1)
			return w
		}
	}
}

// runEmbedded is the library used in process, as the paper intends:
// embeddedStreams budgeted lean sessions in Hard mode share one Fair
// budget with leasing armed, driven by conns goroutines in a
// closed loop. core, session and the mixer's read path do all the work.
func runEmbedded(_ context.Context, e *env, w *workload, d time.Duration, nSetups int, tr *tracer, ck *checks) (*outcome, error) {
	o := newOutcome()
	o.sloLimit = w.slo
	ref := new(refKernel)
	// Half the setups run before the measured loop and half after, so
	// setup_s samples the host at both ends of the run.
	setups := func(n int) (*fleet, error) {
		var f *fleet
		for i := 0; i < n; i++ {
			if f != nil {
				f.close()
			}
			o.setupSlow = append(o.setupSlow, ref.time())
			t0 := time.Now()
			nf, err := newFleet(e.modelPath(), embeddedStreams)
			if err != nil {
				return nil, err
			}
			o.setup = append(o.setup, time.Since(t0).Seconds())
			f = nf
		}
		return f, nil
	}
	f, err := setups((nSetups + 1) / 2)
	if err != nil {
		return nil, err
	}

	// Closed loop: each worker owns an equal slice of the sessions and
	// its own seeded workload; a short unmeasured warm-up comes first.
	sys := f.rt.System()
	per := embeddedStreams / conns
	works := make([]func(core.ActionID, core.Level) core.Cycles, conns)
	for i := range works {
		works[i] = contractWork(sys, e.seed*1000003+uint64(i)+1, e.inject && i == 0)
	}
	closed := func(d time.Duration, timeRef bool) []worker {
		parts := make([]worker, conns)
		start := time.Now()
		var wg sync.WaitGroup
		for i := range parts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var ref *refKernel
				if timeRef {
					ref = new(refKernel)
				}
				parts[i] = serve(f.sess[i*per:(i+1)*per], works[i], start, d, w.slo, ref, tr)
			}(i)
		}
		wg.Wait()
		return parts
	}
	warm := closed(warmUp, false)
	start := time.Now()
	parts := closed(d, true)
	o.closedSecs = time.Since(start).Seconds()

	var misses, errs, warmDecisions int64
	for _, p := range warm {
		warmDecisions += p.decisions
		misses += p.misses
		errs += p.errs
	}
	for _, p := range parts {
		o.decide.merge(p.lat)
		o.rateSegs = append(o.rateSegs, p.segs.segs)
		o.decisions += p.decisions
		o.levelSum += p.levelSum
		o.sloOK += p.sloOK
		o.sloTried += p.cycles
		o.attempted += p.cycles
		misses += p.misses
		errs += p.errs
		o.traffic.decideReqs += p.cycles
	}
	o.levelN = o.decisions
	o.latSegs = o.rateSegs
	o.failed += misses + errs
	o.traffic.decideItems = o.traffic.decideReqs
	o.traffic.costItems = o.traffic.decideReqs // every cycle is charged seeded draws

	ck.expect(misses == 0, "embedded: %d deadline misses on hard streams", misses)
	ck.expect(errs == 0, "embedded: %d stream-cycles failed", errs)
	rs := f.rt.Stats()
	ck.expect(rs.Misses == 0, "embedded: runtime counted %d misses", rs.Misses)
	ck.expect(rs.Actions == o.decisions+warmDecisions, "embedded: runtime counted %d actions, workers %d decisions", rs.Actions, o.decisions+warmDecisions)
	ck.expect(o.levelSum <= o.decisions*int64(len(sys.Levels)-1), "embedded: mean level above the top level")

	bs := f.budget.Stats()
	o.revoked = bs.Revoked
	o.softDemoted = int64(bs.SoftDemoted)
	o.heapMB = liveHeapMB()
	f.close()
	bs = f.budget.Stats()
	ck.expect(bs.Streams == 0 && bs.Granted == 0, "embedded: after release the budget holds %d streams, %d granted", bs.Streams, bs.Granted)
	if f, err = setups(nSetups / 2); err != nil {
		return nil, err
	}
	if f != nil {
		f.close()
	}
	return o, nil
}
