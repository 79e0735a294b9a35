// Command qosctl builds and inspects controlled applications from a
// textual model description (the prototype tool's input format: actions,
// edges, levels, time tables, deadlines). It can show the model, check
// schedulability, print the EDF schedule and the precomputed constraint
// tables, simulate controlled cycles under random load — one stream or
// many concurrent streams served by one shared Runtime — size a
// shared CPU budget: how many concurrent streams of the model one
// budget can carry — and chaos-test the serving stack: drive a mixed
// hard/soft fleet under a deterministic injected fault schedule and
// report whether the robustness invariants held.
//
// Usage:
//
//	qosctl -model app.qos show
//	qosctl -model app.qos check
//	qosctl -model app.qos schedule
//	qosctl -model app.qos tables
//	qosctl -model app.qos simulate -cycles 10 -seed 7 -load 0.5
//	qosctl -model app.qos simulate -streams 8 -cycles 100
//	qosctl -model app.qos capacity -budget 20000000
//	qosctl -model app.qos chaos -streams 16 -cycles 64 -seed 42
//	qosctl -model app.qos chaos -faults stall,shrink -lease 2
//
// With -addr, capacity and admit talk to a running qosd instead of
// computing locally:
//
//	qosctl -addr 127.0.0.1:9150 capacity
//	qosctl -addr 127.0.0.1:9150 -model app.qos admit -streams 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"

	qos "repro"
	"repro/internal/codegen"
)

const usageLine = "usage: qosctl [-addr host:port] -model <file> {show|check|schedule|tables|simulate|capacity|admit|chaos}"

// cliConfig is the parsed command line.
type cliConfig struct {
	modelPath string
	cmd       string
	cycles    int
	seed      uint64
	load      float64
	soft      bool
	streams   int
	budget    int64
	lease     int
	faults    string
	addr      string
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the testable entry point: it parses argv (flags may
// appear on either side of the subcommand), validates, runs, and
// returns the process exit code. Bad usage exits 2 with the usage line
// on stderr; runtime failures exit 1.
func realMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qosctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg cliConfig
	fs.StringVar(&cfg.modelPath, "model", "", "path to the textual model file")
	fs.IntVar(&cfg.cycles, "cycles", 5, "simulate: number of cycles to run per stream")
	fs.Uint64Var(&cfg.seed, "seed", 1, "simulate: random seed")
	fs.Float64Var(&cfg.load, "load", 0.5, "simulate: load position in [0,1] between Cav and Cwc")
	fs.BoolVar(&cfg.soft, "soft", false, "simulate: soft mode (average constraint only)")
	fs.IntVar(&cfg.streams, "streams", 1, "simulate: concurrent streams served by one shared runtime")
	fs.Int64Var(&cfg.budget, "budget", 0, "capacity/chaos: shared cycle budget per period (chaos: 0 auto-sizes)")
	fs.IntVar(&cfg.lease, "lease", 3, "chaos: lease window in epochs before an idle grant is reclaimed")
	fs.StringVar(&cfg.faults, "faults", "all", "chaos: comma-separated fault kinds (stall,panic,overrun,storm,shrink) or all")
	fs.StringVar(&cfg.addr, "addr", "", "qosd address: capacity and admit query the running daemon instead of computing locally")
	usage := func() int {
		fmt.Fprintln(stderr, usageLine)
		return 2
	}
	if err := fs.Parse(argv); err != nil {
		return usage()
	}
	// Flag parsing stops at the first non-flag argument, so flags after
	// the subcommand ("simulate -streams 8") need a second pass.
	if args := fs.Args(); len(args) > 0 {
		cfg.cmd = args[0]
		if err := fs.Parse(args[1:]); err != nil {
			return usage()
		}
	}
	if cfg.cmd == "" || fs.NArg() != 0 {
		return usage()
	}
	// Remote commands identify the model by name over the wire; a local
	// model file is only mandatory when the tool computes itself.
	remoteOK := cfg.addr != "" && (cfg.cmd == "capacity" || cfg.cmd == "admit")
	if cfg.modelPath == "" && !remoteOK {
		return usage()
	}
	if cfg.streams < 1 {
		fmt.Fprintf(stderr, "qosctl: -streams %d: need at least one stream\n", cfg.streams)
		return usage()
	}
	if cfg.cycles < 0 {
		fmt.Fprintf(stderr, "qosctl: -cycles %d: must be non-negative\n", cfg.cycles)
		return usage()
	}
	if err := run(cfg, stdout); err != nil {
		fmt.Fprintln(stderr, "qosctl:", err)
		return 1
	}
	return 0
}

func run(cfg cliConfig, out io.Writer) error {
	switch cfg.cmd {
	case "show":
		sys, iterate, err := buildSystem(cfg.modelPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "actions: %d  levels: %v  iterate: %d\n", sys.Graph.Len(), sys.Levels, iterate)
		fmt.Fprint(out, sys.Graph.String())
		return nil
	case "check":
		sys, _, err := buildSystem(cfg.modelPath)
		if err != nil {
			return err
		}
		if !sys.FeasibleAtQmin() {
			fmt.Fprintln(out, "INFEASIBLE: no schedule meets all deadlines at qmin under worst-case times")
			return nil
		}
		fmt.Fprintln(out, "feasible at qmin under worst-case times: hard control possible")
		return nil
	case "schedule", "tables":
		// The generation commands emit the prototype tool's artifacts
		// for the built system.
		sys, _, err := buildSystem(cfg.modelPath)
		if err != nil {
			return err
		}
		ar := codegen.Generate(sys)
		if cfg.cmd == "schedule" {
			return ar.WriteSchedule(out)
		}
		return ar.WriteTables(out)
	case "simulate":
		return simulate(cfg, out)
	case "capacity":
		if cfg.addr != "" {
			return remoteCapacity(cfg, out)
		}
		return capacity(cfg, out)
	case "admit":
		if cfg.addr == "" {
			return fmt.Errorf("admit needs -addr: it admits streams on a running qosd")
		}
		return remoteAdmit(cfg, out)
	case "chaos":
		return chaos(cfg, out)
	default:
		return fmt.Errorf("unknown command %q", cfg.cmd)
	}
}

// buildSystem loads the model file through the public builder API,
// keeping the iterate count for display.
func buildSystem(path string) (*qos.System, int, error) {
	b, err := qos.LoadModel(path)
	if err != nil {
		return nil, 0, err
	}
	sys, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	return sys, b.Iterations(), nil
}

// capacity binary-searches the maximal number of concurrent streams of
// the model one shared cycle budget per period can carry: the largest N
// for which N admissions still fit the aggregate worst-case qmin load.
// The result is deterministic for a given model and budget.
func capacity(cfg cliConfig, out io.Writer) error {
	if cfg.budget <= 0 {
		return fmt.Errorf("capacity: -budget %d: need a positive shared budget in cycles", cfg.budget)
	}
	sys, _, err := buildSystem(cfg.modelPath)
	if err != nil {
		return err
	}
	var opts []qos.Option
	if cfg.soft {
		opts = append(opts, qos.WithMode(qos.Soft))
	}
	prog, err := qos.NewProgram(sys, opts...)
	if err != nil {
		return err
	}
	spec, err := qos.StreamSpecFromProgram(prog)
	if err != nil {
		return err
	}
	total := qos.Cycles(cfg.budget)
	admits := func(n int) bool {
		if n == 0 {
			return true
		}
		b, err := qos.NewSharedBudget(total, qos.FairShare)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if _, err := b.Admit(spec); err != nil {
				return false
			}
		}
		return true
	}
	// The mixer's own acceptance rule bounds the search space in O(1);
	// binary-search the frontier within it against real trial
	// admissions (admits is monotone in n). Past a sane serving scale
	// the closed form alone is the answer — trial-admitting millions
	// of grants would only burn memory to reconfirm it.
	probe, err := qos.NewSharedBudget(total, qos.FairShare)
	if err != nil {
		return err
	}
	bound := probe.Headroom(spec)
	const trialLimit = 1 << 16
	capN := bound
	if bound <= trialLimit {
		lo, hi := 0, bound+1
		for lo+1 < hi {
			mid := lo + (hi-lo)/2
			if admits(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
		capN = lo
	}
	fmt.Fprintf(out, "model: %s\n", cfg.modelPath)
	fmt.Fprintf(out, "per-stream: nominal=%v min-need(qmin)=%v full-need(qmax)=%v mode=%s\n",
		spec.Nominal, spec.MinNeed, spec.FullNeed, prog.Mode())
	fmt.Fprintf(out, "capacity: %d streams under shared budget %v per period\n", capN, total)
	if capN > 0 {
		perStream := total / qos.Cycles(capN)
		fmt.Fprintf(out, "at capacity: %v per stream (fair); min need is %.1f%% of that share\n",
			perStream, 100*float64(spec.MinNeed)/float64(perStream))
	}
	return nil
}

// streamResult aggregates one simulated stream.
type streamResult struct {
	elapsed qos.Cycles
	meanQ   float64
	misses  int
	fallb   int
	err     error
}

func simulate(cfg cliConfig, out io.Writer) error {
	b, err := qos.LoadModel(cfg.modelPath)
	if err != nil {
		return err
	}
	sys, err := b.Build()
	if err != nil {
		return err
	}
	var opts []qos.Option
	if cfg.soft {
		opts = append(opts, qos.WithMode(qos.Soft))
	}
	// One shared runtime serves every stream: the schedule and the
	// constraint tables are computed once.
	rt, err := qos.NewRuntime(sys, opts...)
	if err != nil {
		return err
	}
	streams, cycles := cfg.streams, cfg.cycles
	results := make([]streamResult, streams)
	var wg sync.WaitGroup
	for st := 0; st < streams; st++ {
		wg.Add(1)
		go func(st int) {
			defer wg.Done()
			rng := qos.NewRNG(cfg.seed + uint64(st))
			s := rt.Acquire()
			defer rt.Release(s)
			r := &results[st]
			var qSum float64
			for c := 0; c < cycles; c++ {
				s.Reset()
				res, err := s.RunFunc(func(a qos.ActionID, q qos.Level) qos.Cycles {
					av := sys.Cav.At(q, a)
					wc := sys.Cwc.At(q, a)
					if wc.IsInf() {
						wc = av.MulSat(2)
					}
					f := cfg.load * rng.Float64() * 2
					if f > 1 {
						f = 1
					}
					return av.AddSat(qos.Cycles(f * float64(wc.SubSat(av))))
				})
				if err != nil {
					r.err = err
					return
				}
				r.elapsed = r.elapsed.AddSat(res.Elapsed)
				qSum += res.MeanLevel()
				r.misses += res.Misses
				r.fallb += res.Fallbacks
			}
			if cycles > 0 {
				r.meanQ = qSum / float64(cycles)
				r.elapsed /= qos.Cycles(cycles)
			}
		}(st)
	}
	wg.Wait()
	for st, r := range results {
		if r.err != nil {
			return fmt.Errorf("stream %d: %w", st, r.err)
		}
		fmt.Fprintf(out, "stream %2d: %d cycles, mean elapsed=%-10s meanQ=%.2f misses=%d fallbacks=%d\n",
			st, cycles, r.elapsed, r.meanQ, r.misses, r.fallb)
	}
	agg := rt.Stats()
	fmt.Fprintf(out, "runtime: served %d cycles / %d actions across %d streams (misses=%d fallbacks=%d)\n",
		agg.Cycles, agg.Actions, streams, agg.Misses, agg.Fallbacks)
	return nil
}
