// Package pipeline simulates the paper's figure 3 architecture: a camera
// producing frames every P cycles, a bounded input buffer of size K, the
// (controlled or constant-quality) encoder, and the display side. It
// implements the paper's operating rules:
//
//   - a frame arriving at a full input buffer is skipped;
//   - buffers of size K allow a maximal latency of P·K, so the time
//     budget for a frame is (arrival + K·P − start), which averages P;
//   - a skipped frame is displayed as the previous frame (PSNR < 25) and
//     its bit allocation is redistributed by the rate controller.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/mixer"
	"repro/internal/mpeg"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/video"
)

// Config selects the encoder variant and pipeline parameters for a run.
type Config struct {
	Source *video.Source
	// K is the input buffer capacity (the paper evaluates K = 1, 2).
	K int
	// Controlled selects the fine-grain QoS controlled encoder; when
	// false the constant-quality baseline at ConstQ is used, unless
	// Policy is set.
	Controlled bool
	ConstQ     core.Level
	// Policy, when non-nil (and Controlled is false), picks a per-frame
	// quality level or skip — the coarse-grain comparators of
	// internal/sched.
	Policy sched.Policy
	// Seed drives content noise and PSNR measurement noise.
	Seed uint64
	// ControlledOpts forwards encoder options (controller mode,
	// smoothness, per-MB deadlines, decision overhead).
	ControlledOpts []mpeg.ControlledOption
	// Bitrate/FrameRate parameterise the rate controller; zero values
	// select the paper's 1.1 Mbit/s at 25 frame/s.
	Bitrate   float64
	FrameRate float64
	// PSNR optionally overrides the PSNR model (zero value = default).
	PSNR *mpeg.PSNRModel
}

// FrameRecord is the per-frame outcome, one row of the figure 6–9 data.
type FrameRecord struct {
	Index     int
	Seq       int
	Type      video.FrameType
	Skipped   bool
	Arrival   core.Cycles
	Start     core.Cycles
	Finish    core.Cycles
	Budget    core.Cycles
	Encode    core.Cycles // encoding time (0 when skipped)
	MeanLevel float64
	Misses    int
	Fallbacks int
	CtrlFrac  float64
	BitsAlloc float64
	PSNR      float64
	// Display-side accounting (figure 3's output buffer + screen): the
	// screen consumes one frame every P, offset by the pipeline depth
	// K·P. Stalled is set when the frame was not yet encoded at its
	// display slot (the screen re-displays the previous frame).
	DisplayTime core.Cycles
	Stalled     bool
}

// Latency returns finish − arrival for encoded frames.
func (r FrameRecord) Latency() core.Cycles {
	if r.Skipped {
		return 0
	}
	return r.Finish.SubSat(r.Arrival)
}

// Result is a full pipeline run.
type Result struct {
	Config  Config
	Records []FrameRecord
	// Aggregates.
	Skips        int
	Misses       int
	Fallbacks    int
	MaxOccupancy int
	// DisplayStalls counts encoded frames that were not ready at their
	// display slot (screen judder beyond the skips).
	DisplayStalls int
	TotalCycles   core.Cycles
	MeanCtrlFrac  float64
}

// EncodedRecords returns only the frames that were actually encoded.
func (r *Result) EncodedRecords() []FrameRecord {
	out := make([]FrameRecord, 0, len(r.Records))
	for _, rec := range r.Records {
		if !rec.Skipped {
			out = append(out, rec)
		}
	}
	return out
}

// RunStreams simulates several pipeline streams concurrently, one
// goroutine per config — the serving shape of the system: many
// camera/encoder streams progressing in parallel. Results are returned
// in config order; a failing stream does not stop its siblings (its
// slot is nil and its error joined).
//
// shared, when non-nil, runs every stream against one global CPU budget
// per period instead of letting each stream assume the whole machine:
// each stream is admitted to the mixer before any stream starts (a
// stream the budget cannot carry even at minimal quality fails with
// ErrBudgetExhausted while its siblings proceed), and each frame's
// encoding budget is capped at the stream's granted share. Admissions
// are released when all streams finish, so a run is deterministic for a
// given config list and budget. Pass nil for the previous
// independent-streams behaviour.
func RunStreams(cfgs []Config, shared *mixer.Budget) ([]*Result, error) {
	return runStreams(cfgs, shared, func(spec mixer.StreamSpec) (*mixer.Grant, error) {
		return shared.Admit(spec)
	})
}

// RunStreamsCtx is RunStreams with queued admissions: a stream the
// budget cannot carry right now waits (mixer.AdmitWait — woken by
// releases, revocations and budget growth, bounded by ctx) instead of
// failing immediately, so a burst of arrivals degrades into admission
// latency rather than rejections. A stream still waiting when ctx
// expires fails with ctx's error while its admitted siblings proceed;
// once ctx is done no further stream is admitted at all, however much
// capacity is free.
func RunStreamsCtx(ctx context.Context, cfgs []Config, shared *mixer.Budget) ([]*Result, error) {
	return runStreams(cfgs, shared, func(spec mixer.StreamSpec) (*mixer.Grant, error) {
		return shared.AdmitWait(ctx, spec)
	})
}

// runStreams is the shared body of RunStreams/RunStreamsCtx; admit is
// consulted only when shared is non-nil. Each stream goroutine is
// panic-isolated: a panicking encoder (a poisoned model, a broken
// workload) fails only its own slot — wrapped in
// session.ErrWorkloadPanic — releases its grant back to the fleet, and
// never takes its siblings down.
func runStreams(cfgs []Config, shared *mixer.Budget, admit func(mixer.StreamSpec) (*mixer.Grant, error)) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	grants := make([]*mixer.Grant, len(cfgs))
	encs := make([]*mpeg.Encoder, len(cfgs))
	if shared != nil {
		for i := range cfgs {
			enc, err := buildEncoder(cfgs[i])
			if err != nil {
				errs[i] = fmt.Errorf("pipeline: stream %d: %w", i, err)
				continue
			}
			g, err := admit(streamSpec(cfgs[i], enc))
			if err != nil {
				errs[i] = fmt.Errorf("pipeline: stream %d: %w", i, err)
				continue
			}
			encs[i], grants[i] = enc, g
		}
		defer func() {
			for _, g := range grants {
				if g != nil {
					g.Release()
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for i := range cfgs {
		if errs[i] != nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if cause := recover(); cause != nil {
					errs[i] = fmt.Errorf("pipeline: stream %d: %w: %v", i, session.ErrWorkloadPanic, cause)
					results[i] = nil
					if grants[i] != nil {
						// Return the share to the survivors right away
						// instead of holding it to the end of the run.
						grants[i].Release()
					}
				}
			}()
			res, err := run(cfgs[i], grants[i], encs[i])
			if err != nil {
				errs[i] = fmt.Errorf("pipeline: stream %d: %w", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// streamSpec derives a pipeline stream's admission contract from its
// built encoder: the period is the stream's nominal horizon; the
// minimal need is the worst-case load of the weakest level the stream
// can run at (qmin for controlled and policy streams, the fixed level
// for constant-quality ones).
func streamSpec(cfg Config, enc *mpeg.Encoder) mixer.StreamSpec {
	p := cfg.Source.Period()
	minNeed := enc.FS.MinFeasibleBudget()
	fullNeed := enc.FS.MaxUsefulBudget()
	if !cfg.Controlled && cfg.Policy == nil {
		// The constant-quality baseline cannot degrade: its worst-case
		// load is pinned at its fixed level.
		minNeed = enc.FS.WorstCaseBudget(cfg.ConstQ)
		fullNeed = minNeed
	}
	nominal := p
	if nominal < minNeed {
		// An overcommitted baseline (the paper's constant q=3 case)
		// wants more than its period; admit it at its true worst-case
		// footprint so the budget arithmetic stays honest.
		nominal = minNeed
	}
	if fullNeed > nominal {
		fullNeed = nominal
	}
	return mixer.StreamSpec{Nominal: nominal, MinNeed: minNeed, FullNeed: fullNeed}
}

// buildEncoder constructs the stream's encoder variant from its config.
func buildEncoder(cfg Config) (*mpeg.Encoder, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("pipeline: nil source")
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("pipeline: buffer size K=%d must be positive", cfg.K)
	}
	p := cfg.Source.Period()
	n := cfg.Source.Config().Macroblocks
	switch {
	case cfg.Controlled && cfg.Policy != nil:
		return nil, fmt.Errorf("pipeline: Controlled and Policy are mutually exclusive")
	case cfg.Controlled:
		return mpeg.NewControlled(n, p, cfg.Seed, cfg.ControlledOpts...)
	case cfg.Policy != nil:
		cfg.Policy.Reset()
		return mpeg.NewConstant(n, 0, p, cfg.Seed)
	default:
		return mpeg.NewConstant(n, cfg.ConstQ, p, cfg.Seed)
	}
}

// Run simulates the whole benchmark stream through the pipeline,
// assuming the whole CPU. To share one budget across several streams
// use RunStreams with a mixer.Budget.
func Run(cfg Config) (*Result, error) {
	return run(cfg, nil, nil)
}

// run simulates one stream; a non-nil grant caps each frame's encoding
// budget at the stream's share of the mixed CPU budget, read at the
// frame boundary. enc may be passed in pre-built (the RunStreams
// admission path builds it to derive the spec); nil builds it here.
func run(cfg Config, grant *mixer.Grant, enc *mpeg.Encoder) (*Result, error) {
	if enc == nil {
		var err error
		enc, err = buildEncoder(cfg)
		if err != nil {
			return nil, err
		}
	}
	src := cfg.Source
	p := src.Period()

	res := &Result{Config: cfg}
	res.Records = make([]FrameRecord, src.Len())
	for i := range res.Records {
		res.Records[i] = FrameRecord{
			Index:   i,
			Seq:     src.SequenceOf(i),
			Arrival: src.ArrivalTime(i),
		}
	}

	fifo := buffer.New(cfg.K)
	var now core.Cycles
	var lastEncode core.Cycles
	nextArrival := 0 // next frame index the camera will deliver
	total := src.Len()

	// deliver pushes all frames that have arrived by time t, skipping on
	// overflow.
	deliver := func(t core.Cycles) {
		for nextArrival < total && src.ArrivalTime(nextArrival) <= t {
			if !fifo.Push(nextArrival) {
				res.Records[nextArrival].Skipped = true
				res.Skips++
			}
			nextArrival++
		}
	}

	minBudget := enc.FS.MinFeasibleBudget()
	for {
		deliver(now)
		idx, ok := fifo.Pop()
		if !ok {
			if nextArrival >= total {
				break // stream drained
			}
			// Idle until the next frame arrives.
			now = src.ArrivalTime(nextArrival)
			continue
		}
		rec := &res.Records[idx]
		f := src.Frame(idx)
		rec.Type = f.Type
		rec.Start = now
		// Latency bound P·K: the frame must be finished K periods after
		// its arrival.
		budget := rec.Arrival.AddSat(p.MulSat(core.Cycles(cfg.K))).SubSat(now)
		if grant != nil {
			// The stream runs on a share of a mixed CPU budget: it may
			// not assume more of the period than the mixer granted it,
			// however much latency headroom the buffers would allow.
			if share := grant.Share(); budget > share {
				budget = share
			}
		}
		if budget < minBudget {
			// Defensive clamp; unreachable for the controlled encoder
			// when P itself is feasible (it never falls behind by more
			// than the latency bound). Under a mixer grant the share is
			// at least the admission's MinNeed, so the clamp stays
			// unreachable there too.
			budget = minBudget
		}
		rec.Budget = budget
		var frep mpeg.FrameReport
		var err error
		if cfg.Policy != nil {
			dec := cfg.Policy.Decide(sched.FrameContext{
				Index:      idx,
				Period:     p,
				Budget:     budget,
				LastEncode: lastEncode,
				BufferOcc:  fifo.Len(),
				BufferCap:  cfg.K,
			})
			if dec.Skip {
				// Deliberate skip: the frame is dropped before encoding.
				rec.Skipped = true
				res.Skips++
				continue
			}
			frep, err = enc.EncodeFrameAt(&f, budget, dec.Level)
		} else {
			frep, err = enc.EncodeFrame(&f, budget)
		}
		if err != nil {
			return nil, fmt.Errorf("pipeline: frame %d: %w", idx, err)
		}
		lastEncode = frep.Elapsed
		// Frames arriving during the encode fill (or overflow) the buffer.
		now = now.AddSat(frep.Elapsed)
		deliver(now)
		rec.Finish = now
		rec.Encode = frep.Elapsed
		rec.MeanLevel = frep.MeanLevel
		rec.Misses = frep.Misses
		rec.Fallbacks = frep.Fallbacks
		rec.CtrlFrac = frep.CtrlFrac
		res.Misses += frep.Misses
		res.Fallbacks += frep.Fallbacks
	}
	res.TotalCycles = now

	_, _, _, maxOcc := fifoStats(fifo)
	res.MaxOccupancy = maxOcc

	applyDisplay(cfg, src, res)
	applyRateAndPSNR(cfg, src, res)

	var ctrlSum float64
	var encoded int
	for _, rec := range res.Records {
		if !rec.Skipped {
			ctrlSum += rec.CtrlFrac
			encoded++
		}
	}
	if encoded > 0 {
		res.MeanCtrlFrac = ctrlSum / float64(encoded)
	}
	return res, nil
}

func fifoStats(f *buffer.FIFO) (pushes, drops, pops, maxOcc int) {
	return f.Stats()
}

// applyDisplay models the output side of figure 3: the screen displays
// frame i at (i + K)·P — the latency the input/output buffers of size K
// absorb. An encoded frame finishing after its slot stalls the display;
// the controlled encoder's latency bound (finish ≤ arrival + K·P) makes
// stalls impossible for it by construction.
func applyDisplay(cfg Config, src *video.Source, res *Result) {
	p := src.Period()
	for i := range res.Records {
		rec := &res.Records[i]
		rec.DisplayTime = rec.Arrival.AddSat(p.MulSat(core.Cycles(cfg.K)))
		if !rec.Skipped && rec.Finish > rec.DisplayTime {
			rec.Stalled = true
			res.DisplayStalls++
		}
	}
}

// applyRateAndPSNR walks frames in display order, feeding the rate
// controller and the PSNR model. Display order is frame-index order, so
// skipped-frame allocations carry into the frames that follow them.
func applyRateAndPSNR(cfg Config, src *video.Source, res *Result) {
	bitrate := cfg.Bitrate
	if bitrate == 0 {
		bitrate = mpeg.DefaultTargetBitrate
	}
	framerate := cfg.FrameRate
	if framerate == 0 {
		framerate = mpeg.DefaultFrameRate
	}
	rc := mpeg.NewRateController(bitrate, framerate)
	model := mpeg.DefaultPSNRModel()
	if cfg.PSNR != nil {
		model = *cfg.PSNR
	}
	rng := platform.NewRNG(cfg.Seed ^ 0xC0FFEE)
	for i := range res.Records {
		rec := &res.Records[i]
		if rec.Skipped {
			rc.SkipFrame()
			rec.PSNR = model.SkippedFrame(rng)
			continue
		}
		f := src.Frame(rec.Index)
		rec.BitsAlloc = rc.AllocFrame(f.Type == video.IFrame)
		rec.PSNR = model.EncodedFrame(&f, rec.MeanLevel, rec.BitsAlloc, rc.BaseBits(), rng)
	}
}
