// Command qosbench is the repository's end-to-end benchmark of the
// Quality Manager. One seeded load-generating process runs a named
// workload against the library in process (embedded) or against the qosd
// daemon's HTTP Handler in process (qosd-churn), checks that every reply
// is correct, and prints every end-to-end metric with its unit. A
// traced run (-trace 1) replays the same seeded inputs and then times
// calls into each layer — core, session, mixer, qosd, the socket — from
// outside, printing the per-layer ladder instead.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The exit code is 0 only when every correctness check passed. Run it
// through run.sh, which builds this command and qosd from source:
//
//	bash qosbench/run.sh --workload embedded --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is what every workload run needs from the command line.
type env struct {
	root    string // checkout root: the model and the sources live here
	qosdBin string // the daemon binary run.sh built
	out     string // where traced runs write their span dumps
	seed    uint64
	inject  bool // charge one action far above its worst case
	stderr  io.Writer
}

func (e *env) modelPath() string {
	return filepath.Join(e.root, "examples", "models", "mpeg_body.qos")
}

// checks collects correctness failures; any failure makes the run
// incorrect and the exit code non-zero.
type checks struct {
	failures []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qosbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "measured seconds of the run")
	traceOn := fs.Int("trace", 0, "1 prints the per-layer ladder instead of the end-to-end metrics")
	root := fs.String("root", ".", "checkout root holding examples/models/mpeg_body.qos")
	qosdBin := fs.String("qosd", "", "qosd binary, for the traced ladder's socket rung")
	out := fs.String("out", "", "directory for span dumps of traced runs")
	inject := fs.Bool("inject-overrun", false, "charge one action far above its worst case, to prove the miss check fires")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "qosbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "qosbench: -seconds must be positive")
		return 2
	}
	e := &env{root: *root, qosdBin: *qosdBin, out: *out, seed: *seed, inject: *inject, stderr: stderr}
	if _, err := os.Stat(e.modelPath()); err != nil {
		fmt.Fprintln(stderr, "qosbench:", err)
		return 1
	}
	if w.wire && e.qosdBin == "" {
		fmt.Fprintln(stderr, "qosbench: workloads served by qosd need -qosd")
		return 2
	}

	ctx := context.Background()
	measure := time.Duration(*seconds * float64(time.Second))
	var (
		res result
		ck  checks
		err error
	)
	if *traceOn == 0 {
		res, err = runEndToEnd(ctx, e, w, measure, &ck, stdout)
	} else {
		res, err = runTraced(ctx, e, w, measure, &ck, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "qosbench:", err)
		return 1
	}
	for _, f := range ck.failures {
		fmt.Fprintln(stderr, "qosbench: check failed:", f)
	}
	res.Correct = len(ck.failures) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "qosbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setups is how many times a run builds its serving state from scratch;
// setup_s is their median.
const setups = 21

func runEndToEnd(ctx context.Context, e *env, w *workload, d time.Duration, ck *checks, stdout io.Writer) (result, error) {
	o, err := w.run(ctx, e, w, d, setups, nil, ck)
	if err != nil {
		return result{}, err
	}
	report(stdout, w, o)
	return result{Attempted: o.attempted, Failed: o.failed, Metrics: o.endToEnd()}, nil
}

// runTraced replays the workload twice on the same seed, untraced and
// traced, for half the measured time each — their gap is the tracing
// overhead — and then walks the layer ladder with this workload's
// request shapes.
func runTraced(ctx context.Context, e *env, w *workload, d time.Duration, ck *checks, stdout io.Writer) (result, error) {
	plain, err := w.run(ctx, e, w, d/2, 1, nil, ck)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	traced, err := w.run(ctx, e, w, d/2, 1, tr, ck)
	if err != nil {
		return result{}, err
	}
	report(stdout, w, traced)
	spans := map[string]metric{}
	for name, ns := range tr.perOp() {
		spans[name] = metric{ns, "ns"}
	}
	printMetrics(stdout, "traced run, median self time per span:", spans)
	lt := newTracer()
	lm, err := ladder(ctx, e, w, d, lt, ck)
	if err != nil {
		return result{}, err
	}
	lm["loadgen.lag_p99_us"] = metric{plain.lag.quantile(0.99) / 1e3, "us"}
	// End-to-end figures whose run-to-run spread on a shared host is
	// wider than any usable bound: reported here, not gated.
	// The admission figures apply to qosd-churn alone, the one workload
	// with an admission client; elsewhere they have no samples and read 0.
	lm["e2e.decide_p99_us"] = metric{plain.decide.quantile(0.99) / 1e3, "us"}
	lm["e2e.admit_p50_ms"] = metric{plain.admit.quantile(0.50) / 1e6, "ms"}
	lm["e2e.admit_p99_ms"] = metric{plain.admit.quantile(0.99) / 1e6, "ms"}
	lm["e2e.shed_frac"] = metric{frac(plain.shed, plain.admits), "frac"}
	overhead := 0.0
	if base := plain.decisionsPerS(); base > 0 {
		overhead = 1 - traced.decisionsPerS()/base
	}
	lm["trace.overhead_frac"] = metric{overhead, "frac"}
	lm["mixer.revoked"] = metric{float64(plain.revoked), "count"}
	lm["mixer.soft_demoted"] = metric{float64(plain.softDemoted), "count"}
	for k, v := range plain.traffic.metrics() {
		lm[k] = v
	}
	if e.out != "" {
		for kind, t := range map[string]*tracer{"run": tr, "ladder": lt} {
			path := filepath.Join(e.out, fmt.Sprintf("spans-%s-%s-seed%d.jsonl", kind, w.name, e.seed))
			if err := t.write(path); err != nil {
				return result{}, fmt.Errorf("write spans: %w", err)
			}
			fmt.Fprintf(stdout, "spans: %s\n", path)
		}
	}
	printMetrics(stdout, "layer ladder:", lm)
	return result{
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   lm,
	}, nil
}

// outcome is everything one workload run measured.
type outcome struct {
	setup []float64 // seconds per setup

	decide    *chunks   // per decide: a request (wire) or a stream-cycle (embedded)
	admit     *chunks   // per measured admission attempt (qosd-churn)
	lag       *hist     // open loop: actual send time minus scheduled time
	setupSlow []float64 // the reference's slowdown, timed right before each setup

	sloLimit   time.Duration
	sloOK      int64 // decides attempted in the SLO phase that succeeded within sloLimit
	sloTried   int64
	decisions  int64   // controller decisions in the closed-loop phase
	closedSecs float64 // length of the closed-loop phase
	rateSegs   [][]seg // closed-loop segments, one list per goroutine
	latSegs    [][]seg // segments of the latency phase, one list per goroutine
	levelSum   int64   // Σ chosen level index, over every decision of the run
	levelN     int64

	admits, shed, queued int64 // measured admissions: all, shed, admitted after queueing
	attempted, failed    int64
	revoked              int64
	softDemoted          int64
	heapMB               float64
	traffic              traffic
}

func newOutcome() *outcome {
	return &outcome{decide: newChunks(chunkSize), admit: newChunks(chunkSize), lag: newHist()}
}

// decisionsPerS is the fast state's closed-loop decision rate at
// nominal host speed.
func (o *outcome) decisionsPerS() float64 { return o.rawRate() * o.slowdown() }

// decideP50 is the fast state's median decide latency at nominal host
// speed, in ns.
func (o *outcome) decideP50() float64 { return o.rawP50() / o.slowdown() }

// setupS is the fast state's setup time at nominal host speed, in seconds.
func (o *outcome) setupS() float64 { return o.rawSetup() / o.slowdown() }

// rawRate sums over goroutines the fastRate quantile of each one's
// segment rates.
func (o *outcome) rawRate() float64 {
	var r float64
	for _, p := range o.rateSegs {
		r += quantile(segField([][]seg{p}, segRate), fastRate)
	}
	return r
}

func (o *outcome) rawP50() float64   { return quantile(segP50s(o.latSegs), fastTime) }
func (o *outcome) rawSetup() float64 { return quantile(append([]float64(nil), o.setup...), fastSetup) }

// slowdown is the fast state's reference slowdown over every timing of
// the run. Timings the run's own load contended read slower and fall
// outside the fastest tenth.
func (o *outcome) slowdown() float64 {
	xs := append(append(segSlows(o.rateSegs), segSlows(o.latSegs)...), o.setupSlow...)
	return quantile(xs, fastTime)
}

func (o *outcome) meanLevel() float64 {
	if o.levelN == 0 {
		return 0
	}
	return float64(o.levelSum) / float64(o.levelN)
}

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (o *outcome) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":         {o.setupS(), "s"},
		"decisions_per_s": {o.decisionsPerS(), "1/s"},
		"decide_p50_us":   {o.decideP50() / 1e3, "us"},
		"slo_frac":        {frac(o.sloOK, o.sloTried), "frac"},
		"mean_level":      {o.meanLevel(), "level"},
		"live_heap_mb":    {o.heapMB, "MB"},
	}
}

// traffic describes what a workload sent, so a claim that helps one kind
// of traffic can cite the measured share.
type traffic struct {
	decideReqs, decideItems, costItems int64
	admitReqs, releaseReqs             int64
	reqBytes, respBytes                int64 // decide requests only
}

func (t *traffic) add(o traffic) {
	t.decideReqs += o.decideReqs
	t.decideItems += o.decideItems
	t.costItems += o.costItems
	t.admitReqs += o.admitReqs
	t.releaseReqs += o.releaseReqs
	t.reqBytes += o.reqBytes
	t.respBytes += o.respBytes
}

func (t traffic) metrics() map[string]metric {
	return map[string]metric{
		"traffic.items_per_request": {frac(t.decideItems, t.decideReqs), "items"},
		"traffic.costs_frac":        {frac(t.costItems, t.decideItems), "frac"},
		"traffic.admit_frac":        {frac(t.admitReqs, t.admitReqs+t.decideReqs+t.releaseReqs), "frac"},
	}
}

// report prints the human-readable summary that precedes the JSON line:
// sample counts, failure and shed shares, and the traffic mix.
func report(w io.Writer, wl *workload, o *outcome) {
	fmt.Fprintf(w, "workload %s (%s), go %s, GOMAXPROCS %d, nproc %d\n",
		wl.name, wl.shape, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(w, "  host speed       reference slowdown against nominal, fast state: %.3f\n", o.slowdown())
	fmt.Fprintf(w, "  setup_s          %.6f (p%.0f of %d; raw %.6f)\n", o.setupS(), fastSetup*100, len(o.setup), o.rawSetup())
	fmt.Fprintf(w, "  decisions_per_s  %.0f (p%.0f of each goroutine's %v segments, summed over %d segments; raw %.0f; %d decisions in %.2fs closed loop)\n",
		o.decisionsPerS(), fastRate*100, closedSeg, segCount(o.rateSegs), o.rawRate(), o.decisions, o.closedSecs)
	fmt.Fprintf(w, "  decide_p50_us    %.3f (p%.0f of %d segments' medians; raw %.3f)\n", o.decideP50()/1e3, fastTime*100, segCount(o.latSegs), o.rawP50()/1e3)
	fmt.Fprintf(w, "  decide_p99_us    %.2f raw (n=%d, median over %d chunks; chunk p99s %.0f)\n",
		o.decide.quantile(0.99)/1e3, o.decide.n(), len(o.decide.full), o.decide.each(0.99, 1e3))
	fmt.Fprintf(w, "  slo_frac         %.4f (%d of %d within %v)\n", frac(o.sloOK, o.sloTried), o.sloOK, o.sloTried, o.sloLimit)
	fmt.Fprintf(w, "  mean_level       %.4f (n=%d decisions)\n", o.meanLevel(), o.levelN)
	if wl.admission != nil {
		fmt.Fprintf(w, "  admit_p50_ms     %.4f  admit_p99_ms %.4f (n=%d, median over %d chunks)\n",
			o.admit.quantile(0.5)/1e6, o.admit.quantile(0.99)/1e6, o.admit.n(), len(o.admit.full))
		fmt.Fprintf(w, "  shed_frac        %.4f (%d shed of %d admits; %d admitted after queueing over %v)\n",
			frac(o.shed, o.admits), o.shed, o.admits, o.queued, queuedAfter)
	}
	fmt.Fprintf(w, "  failed_frac      %.4f (%d of %d operations)\n", frac(o.failed, o.attempted), o.failed, o.attempted)
	fmt.Fprintf(w, "  live_heap_mb     %.3f (after a full collection, while serving)\n", o.heapMB)
	if o.lag.n > 0 {
		fmt.Fprintf(w, "  loadgen lag      p50 %.1fus p99 %.1fus (n=%d)\n", o.lag.quantile(0.5)/1e3, o.lag.quantile(0.99)/1e3, o.lag.n)
	}
	t := o.traffic
	fmt.Fprintf(w, "  traffic          %.2f items/request, %.2f of items carry costs, %.0f B/request, %.0f B/response, admit %d / decide %d / release %d requests\n",
		frac(t.decideItems, t.decideReqs), frac(t.costItems, t.decideItems),
		frac(t.reqBytes, t.decideReqs), frac(t.respBytes, t.decideReqs),
		t.admitReqs, t.decideReqs, t.releaseReqs)
}

func segCount(parts [][]seg) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// printMetrics prints m under a title, one metric a line, by name.
func printMetrics(w io.Writer, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintln(w, title)
	for _, k := range names {
		fmt.Fprintf(w, "  %-36s %14.3f %s\n", k, m[k].Value, m[k].Unit)
	}
}
