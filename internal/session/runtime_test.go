package session

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/core"
	"repro/internal/platform"
)

func TestRuntimeServesOneStream(t *testing.T) {
	sys := demoSystem(t)
	rt, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.RunCycle(platform.WorkloadFunc(func(a core.ActionID, q core.Level) core.Cycles {
		return sys.Cav.At(q, a)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 0 || res.Steps != 3 {
		t.Fatalf("run: %+v", res)
	}
	st := rt.Stats()
	if st.Cycles != 1 || st.Actions != 3 || st.ActiveSessions != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRuntimeReleasedControllerNotHandedOut: a released session's
// controller is never handed out again; the next acquire gets a fresh
// one over the runtime's program, at a cycle boundary.
func TestRuntimeReleasedControllerNotHandedOut(t *testing.T) {
	sys := demoSystem(t)
	rt, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	s1 := rt.Acquire()
	c1 := s1.Controller()
	rt.Release(s1)
	s2 := rt.Acquire()
	if s2.Controller() == c1 {
		t.Fatal("released controller handed out again")
	}
	if s2.Controller().Program() != rt.Program() {
		t.Fatal("acquired controller does not run the runtime's program")
	}
	if s2.Position() != 0 || s2.Elapsed() != 0 {
		t.Fatal("acquired session not at a cycle boundary")
	}
	rt.Release(s2)
	// Releasing twice (or a foreign session) is a no-op.
	rt.Release(s2)
	rt.Release(nil)
}

func TestRuntimeRetargetedSessionNotPooled(t *testing.T) {
	sys := demoSystem(t)
	rt, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	s := rt.Acquire()
	d2 := core.NewTimeFamily(sys.Levels, sys.Graph.Len(), 200)
	if err := s.Controller().Retarget(d2); err != nil {
		t.Fatal(err)
	}
	forked := s.Controller()
	rt.Release(s)
	// The forked controller is never handed out again, and the
	// runtime's sessions keep the shared program.
	for i := 0; i < 8; i++ {
		s2 := rt.Acquire()
		if s2.Controller() == forked {
			t.Fatal("retargeted controller handed out again")
		}
		if s2.Controller().Program() != rt.Program() {
			t.Fatal("a retarget moved the runtime's program")
		}
		defer rt.Release(s2)
	}
}

// TestRuntimeAcquiredControllerMatchesFresh runs two budgeted streams
// in turn on one Runtime, each releasing its session before the other
// acquires. Every cycle of either stream must match a fresh controller
// over the runtime's program, charged the same handicap and fed the
// same costs: the same CycleResult, schedule and decisions (the
// assignment θ, as the workload sees it action by action). No acquire
// is handed the controller of the session released before it.
func TestRuntimeAcquiredControllerMatchesFresh(t *testing.T) {
	sys := demoSystem(t)
	// costs draws each action's cost from seed: mostly within the
	// worst-case contract, and now and then over it (a fallback). It
	// records each decided action and level in *decided.
	type decision struct {
		a core.ActionID
		q core.Level
	}
	costs := func(seed int64, decided *[]decision) func(core.ActionID, core.Level) core.Cycles {
		r := rand.New(rand.NewSource(seed))
		return func(a core.ActionID, q core.Level) core.Cycles {
			*decided = append(*decided, decision{a, q})
			av, wc := sys.Cav.At(q, a), sys.Cwc.At(q, a)
			c := av/2 + core.Cycles(r.Int63n(int64(wc-av/2)+1))
			if r.Intn(6) == 0 {
				c *= 3
			}
			return c
		}
	}
	configs := map[string][]core.Option{
		"hard":    nil,
		"soft":    {core.WithMode(core.Soft)},
		"maxstep": {core.WithMaxStep(1)},
	}
	for name, opts := range configs {
		rt, err := NewRuntime(sys, opts...)
		if err != nil {
			t.Fatal(err)
		}
		streams := [2]*fixedDelay{{d: 0}, {d: 45}}
		r := rand.New(rand.NewSource(1))
		var prev *core.Controller
		fallbacks := 0
		for turn := 0; turn < 16; turn++ {
			src := streams[turn%2]
			s := rt.AcquireBudgeted(src)
			if s.Controller() == prev {
				t.Fatalf("%s turn %d: the released controller was handed out again", name, turn)
			}
			for cycle := 0; cycle < 3; cycle++ {
				if cycle > 0 {
					s.Reset()
				}
				seed := r.Int63()
				var gotDecided, wantDecided []decision
				got, err := s.RunFunc(costs(seed, &gotDecided))
				if err != nil {
					t.Fatal(err)
				}
				fresh := rt.Program().NewController()
				fresh.Preempt(src.d)
				want, err := fresh.RunFunc(costs(seed, &wantDecided))
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s turn %d cycle %d: acquired %+v, fresh %+v", name, turn, cycle, got, want)
				}
				fallbacks += got.Fallbacks
				if !slices.Equal(gotDecided, wantDecided) || !slices.Equal(s.Schedule(), fresh.Schedule()) {
					t.Fatalf("%s turn %d cycle %d: acquired decisions %v schedule %v, fresh %v %v", name, turn, cycle,
						gotDecided, s.Schedule(), wantDecided, fresh.Schedule())
				}
			}
			prev = s.Controller()
			rt.Release(s)
		}
		if fallbacks == 0 {
			t.Fatalf("%s: no cycle fell back; the costs never broke the contract", name)
		}
	}
}

// TestRuntimeConcurrentStreams drives 8 concurrent sessions through one
// runtime under -race: one shared System's precomputed tables serving
// many streams, each deterministic and miss free.
func TestRuntimeConcurrentStreams(t *testing.T) {
	sys := demoSystem(t)
	rt, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Reference result at a fixed load for determinism checking.
	ref, err := rt.RunCycle(platform.WorkloadFunc(func(a core.ActionID, q core.Level) core.Cycles {
		return sys.Cav.At(q, a)
	}))
	if err != nil {
		t.Fatal(err)
	}

	const streams = 8
	const cyclesPerStream = 200
	var wg sync.WaitGroup
	errs := make([]error, streams)
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := platform.NewRNG(uint64(g) + 1)
			for c := 0; c < cyclesPerStream; c++ {
				var res core.CycleResult
				var err error
				if c%2 == 0 {
					// Deterministic cycle: must match the reference.
					res, err = rt.RunCycle(platform.WorkloadFunc(func(a core.ActionID, q core.Level) core.Cycles {
						return sys.Cav.At(q, a)
					}))
					if err == nil && (res.Elapsed != ref.Elapsed || res.MeanLevel() != ref.MeanLevel()) {
						t.Errorf("stream %d cycle %d diverged: %v/%v vs %v/%v",
							g, c, res.Elapsed, res.MeanLevel(), ref.Elapsed, ref.MeanLevel())
						return
					}
				} else {
					// Random in-contract load: hard mode guarantees no miss.
					res, err = rt.RunCycle(platform.WorkloadFunc(func(a core.ActionID, q core.Level) core.Cycles {
						av := sys.Cav.At(q, a)
						wc := sys.Cwc.At(q, a)
						return av + core.Cycles(rng.Float64()*float64(wc-av))
					}))
				}
				if err != nil {
					errs[g] = err
					return
				}
				if res.Misses != 0 {
					t.Errorf("stream %d cycle %d missed %d deadlines", g, c, res.Misses)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("stream %d: %v", g, err)
		}
	}
	st := rt.Stats()
	if want := int64(streams*cyclesPerStream + 1); st.Cycles != want {
		t.Fatalf("served %d cycles, want %d", st.Cycles, want)
	}
	if st.Misses != 0 || st.ActiveSessions != 0 {
		t.Fatalf("stats after serve: %+v", st)
	}
}

// TestRuntimeConcurrentObserversPerStream checks that per-acquire
// observers see exactly their own stream.
func TestRuntimeConcurrentObserversPerStream(t *testing.T) {
	sys := demoSystem(t)
	rt, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	const streams = 8
	counts := make([]int, streams)
	var wg sync.WaitGroup
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			obs := FuncObserver{Completion: func(core.Decision, core.Cycles, core.Cycles) { counts[g]++ }}
			for c := 0; c < 50; c++ {
				if _, err := rt.RunCycle(platform.WorkloadFunc(func(a core.ActionID, q core.Level) core.Cycles {
					return sys.Cav.At(q, a)
				}), obs); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, n := range counts {
		if n != 50*3 {
			t.Fatalf("stream %d observer saw %d completions, want %d", g, n, 150)
		}
	}
}

func TestRuntimeSoftMode(t *testing.T) {
	sys := demoSystem(t)
	rt, err := NewRuntime(sys, core.WithMode(core.Soft))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Program().Mode() != core.Soft {
		t.Fatal("runtime controller options not applied")
	}
}

// fixedDelay is a BudgetSource test double with a settable handicap.
type fixedDelay struct {
	mu sync.Mutex
	d  core.Cycles
}

func (f *fixedDelay) LeaseDelay() (core.Cycles, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.d, nil
}

func (f *fixedDelay) set(d core.Cycles) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.d = d
}

// TestRuntimeAcquireBudgeted checks the budget hook: the session opens
// every cycle with the shared-budget handicap pre-charged, and re-reads
// the share at each Reset. The demo system's first decision admits the
// top level up to t=60 and the mid level up to t=64.
func TestRuntimeAcquireBudgeted(t *testing.T) {
	sys := demoSystem(t)
	rt, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	src := &fixedDelay{d: 61}
	s := rt.AcquireBudgeted(src)
	defer rt.Release(s)
	if s.Elapsed() != 61 {
		t.Fatalf("budgeted session opened at t=%v, want 61", s.Elapsed())
	}
	d, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d.Level != 1 || d.Fallback {
		t.Fatalf("decision under handicap 61: %+v, want level 1", d)
	}
	// The share grew between cycles (another stream released): Reset
	// must pick up the new delay and recover full quality.
	src.set(0)
	s.Reset()
	if s.Elapsed() != 0 {
		t.Fatalf("reset session at t=%v, want 0", s.Elapsed())
	}
	d, err = s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d.Level != 2 {
		t.Fatalf("decision at full share: %+v, want top level", d)
	}
}

// TestRuntimeReleaseForeignRuntime: a session must only ever be
// released to the runtime it came from; a foreign release is a no-op
// that leaves the session attached and usable.
func TestRuntimeReleaseForeignRuntime(t *testing.T) {
	sys := demoSystem(t)
	rtA, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	rtB, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	s := rtA.Acquire()
	rtB.Release(s)
	if got := rtA.Stats().ActiveSessions; got != 1 {
		t.Fatalf("foreign release detached the session: active=%d", got)
	}
	if got := rtB.Stats().ActiveSessions; got != 0 {
		t.Fatalf("foreign release corrupted the foreign runtime: active=%d", got)
	}
	// The session still runs and accounts to its true owner.
	if _, err := s.RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
		return sys.Cav.At(q, a)
	}); err != nil {
		t.Fatal(err)
	}
	if got := rtA.Stats().Cycles; got != 1 {
		t.Fatalf("cycle accounted to the wrong runtime: A served %d", got)
	}
	rtA.Release(s)
	if got := rtA.Stats().ActiveSessions; got != 0 {
		t.Fatalf("owner release failed after foreign attempt: active=%d", got)
	}
	// A fresh acquire from B serves B's program, not A's controller.
	sB := rtB.Acquire()
	defer rtB.Release(sB)
	if sB.Controller().Program() != rtB.Program() {
		t.Fatal("B handed out a controller over A's program")
	}
}

// TestRuntimeConcurrentDoubleRelease races many releases of the same
// sessions (run under -race): each session must detach exactly once, so
// its tally is folded into the released totals once and the active
// count never goes negative.
func TestRuntimeConcurrentDoubleRelease(t *testing.T) {
	sys := demoSystem(t)
	rt, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 16
	ss := make([]*Session, sessions)
	for i := range ss {
		ss[i] = rt.Acquire()
		if _, err := ss[i].RunFunc(func(a core.ActionID, q core.Level) core.Cycles {
			return sys.Cav.At(q, a)
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, s := range ss {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(s *Session) {
				defer wg.Done()
				rt.Release(s)
			}(s)
		}
	}
	wg.Wait()
	if st := rt.Stats(); st.ActiveSessions != 0 || st.Cycles != sessions {
		t.Fatalf("after racy releases: %d active, %d cycles, want 0 and %d", st.ActiveSessions, st.Cycles, sessions)
	}
	// Two sessions never share a controller.
	a, b := rt.Acquire(), rt.Acquire()
	defer rt.Release(a)
	defer rt.Release(b)
	if a.Controller() == b.Controller() {
		t.Fatal("one controller handed to two sessions")
	}
}

// TestRuntimeFreedAfterOneCollection: a Runtime that served sessions and
// was dropped is freed by the next collection. Nothing it handed out or
// took back keeps it, its program or its system reachable through a
// second one, so a heap read after one collection counts only the
// runtimes still in use.
func TestRuntimeFreedAfterOneCollection(t *testing.T) {
	sys := demoSystem(t)
	ref := func() weak.Pointer[Runtime] {
		rt, err := NewRuntime(sys)
		if err != nil {
			t.Fatal(err)
		}
		work := platform.WorkloadFunc(func(a core.ActionID, q core.Level) core.Cycles { return sys.Cav.At(q, a) })
		held := rt.AcquireBudgeted(&fixedDelay{d: 10})
		for i := 0; i < 4; i++ {
			if _, err := rt.RunCycle(work); err != nil {
				t.Fatal(err)
			}
		}
		rt.Release(held)
		return weak.Make(rt)
	}()
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("a dropped Runtime survived a collection")
	}
}

// TestRuntimeAcquireAllocs pins a stream's cost on the runtime: in
// steady state AcquireBudgeted and Release on mpeg_body allocate
// exactly the session's block.
func TestRuntimeAcquireAllocs(t *testing.T) {
	b, err := LoadModel(filepath.Join("..", "..", "examples", "models", "mpeg_body.qos"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	src := &fixedDelay{d: 10}
	rt.Release(rt.AcquireBudgeted(src)) // grows the live registry once
	if got := testing.AllocsPerRun(100, func() { rt.Release(rt.AcquireBudgeted(src)) }); got != 1 {
		t.Fatalf("AcquireBudgeted+Release: %v allocations, want 1 (the block)", got)
	}
}

// TestRuntimeBlocksOwnCacheLines checks that every acquired session's
// block starts on a 64-byte cache line: with its size class a multiple
// of the line, two streams' blocks then share no line, and a stream's
// writes never slow its neighbour's reads.
func TestRuntimeBlocksOwnCacheLines(t *testing.T) {
	rt, err := NewRuntime(demoSystem(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		s := rt.Acquire()
		if at := uintptr(unsafe.Pointer(s)); at%64 != 0 {
			t.Fatalf("session %d: block at %#x, %d bytes into a cache line (block size %d)",
				i, at, at%64, unsafe.Sizeof(tallied{}))
		}
		defer rt.Release(s)
	}
}

// TestRuntimeStatsExactWhileHeld checks the served totals while
// sessions are still held: each acquired session counts its own cycles
// and their controller statistics, Release folds them into the retired
// totals, and RunCycle's session, acquired and released around its
// cycle, is folded in the same way. A concurrent reader must never see
// a total go backwards (a cycle dropped or counted twice by a fold),
// and a snapshot taken with no stream running is exact: its controller
// totals equal the sums of every served cycle's core.ControllerStats,
// whose decisions are its actions.
func TestRuntimeStatsExactWhileHeld(t *testing.T) {
	sys := demoSystem(t)
	rt, err := NewRuntime(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Every third cycle's first action overruns its contract, so the
	// cycles decide at more than one level and fall back.
	work := func(c int) func(core.ActionID, core.Level) core.Cycles {
		return func(a core.ActionID, q core.Level) core.Cycles {
			if c%3 == 0 && a == 0 {
				return 95
			}
			return sys.Cav.At(q, a)
		}
	}
	const streams, cycles = 6, 100
	held := make([]*Session, streams)
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var last RuntimeStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := rt.Stats()
			if st.Cycles < last.Cycles || st.Actions < last.Actions || st.Fallbacks < last.Fallbacks ||
				st.LevelSum < last.LevelSum || st.LevelChanges < last.LevelChanges ||
				st.CandidateEvals < last.CandidateEvals {
				t.Errorf("stats went from %+v to %+v", last, st)
				return
			}
			last = st
		}
	}()
	// sums[g] adds up worker g's cycles' controller statistics.
	sums := make([]core.ControllerStats, streams)
	var wg sync.WaitGroup
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			count := func(res core.CycleResult) {
				sum := &sums[g]
				sum.Decisions += res.Stats.Decisions
				sum.Fallbacks += res.Stats.Fallbacks
				sum.LevelSum += res.Stats.LevelSum
				sum.LevelChanges += res.Stats.LevelChanges
				sum.CandidateEval += res.Stats.CandidateEval
			}
			s := rt.Acquire()
			for c := 0; c < cycles; c++ {
				s.Reset()
				res, err := s.RunFunc(work(c))
				if err != nil {
					t.Error(err)
					return
				}
				count(res)
				if res, err = rt.RunCycle(platform.WorkloadFunc(work(c))); err != nil {
					t.Error(err)
					return
				}
				count(res)
			}
			if g%2 == 0 {
				rt.Release(s) // folded into the retired totals
				return
			}
			held[g] = s
		}(g)
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	st := rt.Stats()
	if want := int64(2 * streams * cycles); st.Cycles != want || st.Actions != 3*want {
		t.Fatalf("with %d sessions held: %+v, want %d cycles", streams/2, st, want)
	}
	if st.ActiveSessions != streams/2 {
		t.Fatalf("active sessions %d, want %d", st.ActiveSessions, streams/2)
	}
	var want core.ControllerStats
	for _, sum := range sums {
		want.Decisions += sum.Decisions
		want.Fallbacks += sum.Fallbacks
		want.LevelSum += sum.LevelSum
		want.LevelChanges += sum.LevelChanges
		want.CandidateEval += sum.CandidateEval
	}
	if want.Fallbacks == 0 || want.LevelChanges == 0 {
		t.Fatalf("the cycles neither fell back nor changed level: %+v", want)
	}
	if got := (core.ControllerStats{Decisions: int(st.Actions), Fallbacks: int(st.Fallbacks), LevelSum: st.LevelSum,
		LevelChanges: int(st.LevelChanges), CandidateEval: int(st.CandidateEvals)}); got != want {
		t.Fatalf("controller totals %+v, want the cycles' sum %+v", got, want)
	}
	for _, s := range held {
		rt.Release(s)
	}
	if after := rt.Stats(); after.Cycles != st.Cycles || after.ActiveSessions != 0 {
		t.Fatalf("after release: %+v, before: %+v", after, st)
	}
}

// BenchmarkRuntimeAcquireRelease measures a stream's lifetime on the
// runtime without its cycles: Acquire, then Release, from GOMAXPROCS
// goroutines at once.
func BenchmarkRuntimeAcquireRelease(b *testing.B) {
	rt, err := NewRuntime(demoSystem(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rt.Release(rt.Acquire())
		}
	})
}

// BenchmarkRuntimeRunCycle measures the stateless path, one RunCycle
// (acquire, cycle, release) per op, from GOMAXPROCS goroutines at once.
func BenchmarkRuntimeRunCycle(b *testing.B) {
	sys := demoSystem(b)
	rt, err := NewRuntime(sys)
	if err != nil {
		b.Fatal(err)
	}
	work := platform.WorkloadFunc(func(a core.ActionID, q core.Level) core.Cycles { return sys.Cav.At(q, a) })
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := rt.RunCycle(work); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
