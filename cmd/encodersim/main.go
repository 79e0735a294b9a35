// Command encodersim regenerates the paper's evaluation (section 3) on
// the simulated platform: the figure 5 timing tables, the figure 6/7
// time-budget-utilisation series, the figure 8/9 PSNR series, the
// overhead estimates, and the ablation studies. Output is printed as
// aligned text tables (and optional ASCII plots) in the same units as
// the paper: Mcycle for encoding times, dB for PSNR.
//
// Usage:
//
//	encodersim -fig 6            # one figure
//	encodersim -fig all          # everything
//	encodersim -fig 8 -plot      # include an ASCII rendering
//	encodersim -frames 200       # shorter run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	qos "repro"
	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	var (
		fig    = flag.String("fig", "all", "figure to regenerate: 5|6|7|8|9|overhead|policies|grain|buffers|all")
		frames = flag.Int("frames", 582, "number of frames in the benchmark stream")
		mbs    = flag.Int("mbs", 1800, "macroblocks per frame")
		seed   = flag.Uint64("seed", 1, "simulation seed")
		plot   = flag.Bool("plot", false, "render ASCII plots of the series")
		every  = flag.Int("every", 20, "print every n-th frame row in series tables")
	)
	flag.Parse()
	o := experiments.Options{Frames: *frames, Macroblocks: *mbs, Seed: *seed}
	if err := run(os.Stdout, *fig, o, *plot, *every); err != nil {
		fmt.Fprintln(os.Stderr, "encodersim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, fig string, o experiments.Options, plot bool, every int) error {
	switch fig {
	case "5":
		return fig5(w)
	case "6", "7":
		return budgetFig(w, fig, o, plot, every)
	case "8", "9":
		return psnrFig(w, fig, o, plot, every)
	case "overhead":
		return overhead(w, o)
	case "policies":
		return policies(w, o)
	case "grain":
		return grain(w, o)
	case "buffers":
		return buffers(w, o)
	case "learning":
		return learning(w, o)
	case "smoothness":
		return smoothness(w, o)
	case "decoder":
		return decoderFig(w, o)
	case "all":
		for _, f := range []string{"5", "6", "7", "8", "9", "overhead", "policies", "grain", "buffers", "learning", "smoothness", "decoder"} {
			if err := run(w, f, o, plot, every); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	default:
		return fmt.Errorf("unknown -fig %q", fig)
	}
}

func fig5(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 5: execution times (cycles) ==")
	rows := [][]string{}
	for _, r := range experiments.Fig5() {
		q := "-"
		if r.Quality >= 0 {
			q = strconv.Itoa(r.Quality)
		}
		rows = append(rows, []string{r.Label, q, r.Av.String(), r.Wc.String()})
	}
	fmt.Fprint(w, stats.RenderTable([]string{"action", "quality", "average", "worst case"}, rows))
	return nil
}

func budgetFig(w io.Writer, fig string, o experiments.Options, plot bool, every int) error {
	var bf *experiments.BudgetFigure
	var err error
	if fig == "6" {
		bf, err = experiments.Fig6(o)
	} else {
		bf, err = experiments.Fig7(o)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Figure %s: time budget utilisation (encoding time, Mcycle; P = %.0f) ==\n", fig, bf.PeriodMcycle)
	printSeriesTable(w, every, "encode-Mc", bf.Controlled, bf.Constant)
	printRunSummary(w, "controlled", bf.CtrlResult)
	printRunSummary(w, bf.Constant.Name, bf.ConstResult)
	if plot {
		fmt.Fprint(w, stats.RenderASCIIPlot(18, 100, bf.Controlled, bf.Constant))
	}
	return nil
}

func psnrFig(w io.Writer, fig string, o experiments.Options, plot bool, every int) error {
	var pf *experiments.PSNRFigure
	var err error
	if fig == "8" {
		pf, err = experiments.Fig8(o)
	} else {
		pf, err = experiments.Fig9(o)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Figure %s: PSNR between input and output (dB) ==\n", fig)
	printSeriesTable(w, every, "PSNR-dB", pf.Controlled, pf.Constant)
	printRunSummary(w, "controlled", pf.CtrlResult)
	printRunSummary(w, pf.Constant.Name, pf.ConstResult)
	if plot {
		fmt.Fprint(w, stats.RenderASCIIPlot(18, 100, pf.Controlled, pf.Constant))
	}
	return nil
}

func printSeriesTable(w io.Writer, every int, unit string, a, b *stats.Series) {
	if every <= 0 {
		every = 20
	}
	header := []string{"frame", a.Name + " (" + unit + ")", b.Name + " (" + unit + ")"}
	rows := [][]string{}
	for i := 0; i < a.Len() && i < b.Len(); i += every {
		rows = append(rows, []string{
			strconv.Itoa(i),
			fmt.Sprintf("%.2f", a.Values[i]),
			fmt.Sprintf("%.2f", b.Values[i]),
		})
	}
	fmt.Fprint(w, stats.RenderTable(header, rows))
	sa, sb := a.Summary(), b.Summary()
	fmt.Fprintf(w, "summary %-44s mean=%.2f min=%.2f max=%.2f\n", a.Name, sa.Mean, sa.Min, sa.Max)
	fmt.Fprintf(w, "summary %-44s mean=%.2f min=%.2f max=%.2f\n", b.Name, sb.Mean, sb.Min, sb.Max)
}

func printRunSummary(w io.Writer, name string, res *qos.PipelineResult) {
	util := experiments.UtilisationSummary(res)
	fmt.Fprintf(w, "run %-46s skips=%d misses=%d fallbacks=%d utilisation(mean)=%.3f ctrl-overhead=%.4f\n",
		name, res.Skips, res.Misses, res.Fallbacks, util.Mean, res.MeanCtrlFrac)
}

func overhead(w io.Writer, o experiments.Options) error {
	rep, err := experiments.Overhead(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Section 3 overheads (paper: ~2% code, <=1% memory, <1.5% runtime) ==")
	rows := [][]string{
		{"code", fmt.Sprintf("%d B", rep.ControllerCodeBytes+rep.CallSiteBytes), fmt.Sprintf("%d B", rep.BaselineCodeBytes), fmt.Sprintf("%.2f%%", 100*rep.CodeFraction)},
		{"memory (tables)", fmt.Sprintf("%d B", rep.TableBytes), fmt.Sprintf("%d B", rep.BaselineMemBytes), fmt.Sprintf("%.2f%%", 100*rep.MemFraction)},
		{"runtime", "-", "-", fmt.Sprintf("%.2f%%", 100*rep.RuntimeFraction)},
	}
	fmt.Fprint(w, stats.RenderTable([]string{"overhead", "added", "baseline", "fraction"}, rows))
	return nil
}

func policies(w io.Writer, o experiments.Options) error {
	rows, err := experiments.ComparePolicies(o, 1)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Ablation: fine-grain control vs coarse-grain policies (K=1) ==")
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Name,
			strconv.Itoa(r.Skips), strconv.Itoa(r.Misses),
			fmt.Sprintf("%.2f", r.MeanLevel),
			fmt.Sprintf("%.2f", r.MeanPSNR),
			fmt.Sprintf("%.3f", r.Utilisation),
		})
	}
	fmt.Fprint(w, stats.RenderTable([]string{"policy", "skips", "misses", "mean-q", "mean-PSNR", "utilisation"}, out))
	return nil
}

func grain(w io.Writer, o experiments.Options) error {
	rows, err := experiments.CompareGrain(o, 1)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Ablation: control granularity and smoothness (K=1) ==")
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Name,
			strconv.Itoa(r.Skips), strconv.Itoa(r.Misses), strconv.Itoa(r.Fallbacks),
			fmt.Sprintf("%.2f", r.MeanLevel),
			fmt.Sprintf("%.2f", r.MeanPSNR),
			fmt.Sprintf("%.1f", r.MeanEncodeMc),
		})
	}
	fmt.Fprint(w, stats.RenderTable([]string{"variant", "skips", "misses", "fallbacks", "mean-q", "mean-PSNR", "mean-encode-Mc"}, out))
	return nil
}

func learning(w io.Writer, o experiments.Options) error {
	rows, err := experiments.CompareLearning(o, 1)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Ablation: online learning of average execution times (K=1) ==")
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Name,
			fmt.Sprintf("%.2f", r.MeanLevel),
			fmt.Sprintf("%.2f", r.MeanPSNR),
			fmt.Sprintf("%.3f", r.Utilisation),
			strconv.Itoa(r.Misses), strconv.Itoa(r.Skips),
		})
	}
	fmt.Fprint(w, stats.RenderTable([]string{"variant", "mean-q", "mean-PSNR", "utilisation", "misses", "skips"}, out))
	return nil
}

func decoderFig(w io.Writer, o experiments.Options) error {
	rows, deadline, err := experiments.DecoderComparison(o.Frames, o.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Second case study: quality-scalable decoder, hard display deadline ==")
	fmt.Fprintf(w, "display deadline: %.2f Mcycle/frame\n", float64(deadline)/1e6)
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Name,
			fmt.Sprintf("%.2f", r.MeanLevel),
			fmt.Sprintf("%d/%d", r.Misses, r.Frames),
			fmt.Sprintf("%.3f", r.MeanBudget),
		})
	}
	fmt.Fprint(w, stats.RenderTable([]string{"variant", "mean-q", "misses", "budget use"}, out))
	return nil
}

func smoothness(w io.Writer, o experiments.Options) error {
	n := o.Macroblocks
	if n == 0 || n > 120 {
		n = 120 // the analysis is per-position; a slice of the frame suffices
	}
	res, err := experiments.Smoothness(n, o.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Smoothness analysis: guaranteed bound on quality drops ==")
	fmt.Fprintf(w, "frame slice: %d macroblocks, budget = q4 average\n", res.Macroblocks)
	fmt.Fprintf(w, "static bound on consecutive-decision drop: %d levels (q%d -> q%d at position %d)\n",
		res.MaxDrop, res.WorstFrom, res.WorstTo, res.WorstPosition)
	fmt.Fprintf(w, "observed worst drop in a high-load run:    %d levels\n", res.ObservedMaxDrop)
	return nil
}

func buffers(w io.Writer, o experiments.Options) error {
	fmt.Fprintln(w, "== Ablation: constant quality q=4, buffer size sweep ==")
	rows, err := experiments.BufferSweep(o, 4, []int{1, 2, 3, 4})
	if err != nil {
		return err
	}
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			strconv.Itoa(r.K), strconv.Itoa(r.Skips),
			fmt.Sprintf("%.2f", r.MaxLatency),
			fmt.Sprintf("%.2f", r.MeanPSNR),
		})
	}
	fmt.Fprint(w, stats.RenderTable([]string{"K", "skips", "max-latency (periods)", "mean-PSNR"}, out))
	return nil
}
