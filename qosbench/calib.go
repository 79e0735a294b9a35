package main

import "time"

// The host-speed reference.
//
// On a shared host the speed the benchmark gets drifts by tens of percent
// within minutes, so two sets of runs of the same code made an hour apart
// can disagree by more than any usable bound. Every run therefore times a
// reference kernel that shares no code with the program, right after each
// measured segment of its loops and right before each setup, and reports
// each gated timing at the host speed the kernel's frozen nominal time
// stands for: a time measured while the kernel ran k times slower than
// nominal is divided by k, a rate multiplied by k, where k is the fast
// state's slowdown over every timing of the run. The report above the
// JSON line prints the raw figures and k next to them.

// The reference kernel's size and its frozen nominal time, about its
// median on a 2-vCPU Intel Xeon VM with Go 1.24.0. Changing either
// rescales every gated timing; keep them.
const (
	refIters   = 200_000
	refNominal = 700 * time.Microsecond
)

// refKernel is the reference: a xorshift walk updating a 64 KiB table, so
// it exercises the ALUs, the branch predictor and the first two cache
// levels the way the controller's table lookups do. Each goroutine that
// times it owns one.
type refKernel struct {
	tab  [1 << 14]uint32
	sink uint64
}

// time runs the kernel once and returns how many times slower than
// nominal it ran.
func (k *refKernel) time() float64 {
	x := uint64(88172645463325252)
	var s uint64
	t0 := time.Now()
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (1<<14 - 1)
		k.tab[j] += uint32(x)
		s += uint64(k.tab[(j*31)&(1<<14-1)])
	}
	el := time.Since(t0)
	k.sink += s
	return float64(el) / float64(refNominal)
}

// seg is one measured segment of one goroutine's loop.
type seg struct {
	n    int64         // decisions completed
	busy time.Duration // from the segment's start to its last completion
	p50  float64       // median latency of its operations, ns
	slow float64       // the reference's slowdown, timed right after the segment
}

// Segment lengths: closed loops are cut at fixed times from their start;
// open loops every openSeg of schedule, with openGap of idle schedule
// after each segment in which the reference is timed.
const (
	closedSeg = 250 * time.Millisecond
	openSeg   = 250 * time.Millisecond
	openGap   = 10 * time.Millisecond
)

// segmenter cuts one goroutine's closed loop into segments ending at
// start + k×closedSeg and times the reference after each one.
type segmenter struct {
	ref  *refKernel // nil: the reference is not timed
	end  time.Time
	from time.Time
	cur  seg
	lat  *hist
	segs []seg
}

func newSegmenter(start time.Time, r *refKernel) *segmenter {
	return &segmenter{ref: r, end: start.Add(closedSeg), from: start, lat: newHist()}
}

// add records one operation that completed at t after lat with n
// decisions; the first completion at or past the segment's end closes it.
func (s *segmenter) add(t time.Time, lat time.Duration, n int64) {
	s.cur.n += n
	s.lat.add(lat)
	if t.Before(s.end) {
		return
	}
	s.close(t)
	s.from = time.Now()
	for !s.end.After(s.from) {
		s.end = s.end.Add(closedSeg)
	}
}

// close ends the current segment at t, if it holds any operation.
func (s *segmenter) close(t time.Time) {
	if s.lat.n == 0 {
		return
	}
	s.cur.busy = t.Sub(s.from)
	s.cur.p50 = s.lat.quantile(0.5)
	if s.ref != nil {
		s.cur.slow = s.ref.time()
	}
	s.segs = append(s.segs, s.cur)
	s.cur = seg{}
	s.lat.reset()
}

// Quantiles of the segment figures the gated metrics take. The host runs
// in two states, fast and contended, and the share of time in each swings
// from run to run, so a median flips between them; the fast state's own
// figures move little, and each goroutine's CPU changes state on its own.
// The metrics therefore read the fast state: the fastest tenth of each
// goroutine's segment rates, of segment median latencies and of reference
// timings, and the fastest fifth of setups.
const (
	fastRate  = 0.9 // quantile of segment decision rates
	fastTime  = 0.1 // quantile of segment latencies and reference slowdowns
	fastSetup = 0.2 // quantile of setup times
)

// segRate is a segment's decisions per second of busy time.
func segRate(s seg) float64 {
	if s.busy <= 0 {
		return 0
	}
	return float64(s.n) / s.busy.Seconds()
}

// segField returns f of every goroutine's every segment.
func segField(parts [][]seg, f func(seg) float64) []float64 {
	var xs []float64
	for _, p := range parts {
		for _, s := range p {
			xs = append(xs, f(s))
		}
	}
	return xs
}

func segP50s(parts [][]seg) []float64  { return segField(parts, func(s seg) float64 { return s.p50 }) }
func segSlows(parts [][]seg) []float64 { return segField(parts, func(s seg) float64 { return s.slow }) }
