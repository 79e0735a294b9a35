// Package codegen implements the paper's prototype tool (figure 4):
// from a parameterized system (a ".qos" model read by
// session.LoadModel and built), it computes the EDF schedule and the
// precomputed constraint tables, and emits a "controlled application"
// source listing (the paper's compiler links these with the action code
// and a generic controller).
package codegen

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
)

// Artifacts are the outputs of the prototype tool for one model: the
// EDF schedule α, the quality-constraint tables, and the system they
// were computed for.
type Artifacts struct {
	Sys    *core.System
	Alpha  []core.ActionID
	Tables *core.Tables
}

// Generate runs the tool pipeline of figure 4: schedule computation
// (EDF at qmin under worst-case times) and table precomputation along
// that schedule, the α and tables core.NewProgram builds. A deadline
// order that depends on the quality level needs nothing more: the
// tables evaluate each level's deadlines along the one schedule.
func Generate(sys *core.System) *Artifacts {
	alpha := core.EDFSchedule(sys.Graph, sys.Cwc.AtIndex(0), sys.D.AtIndex(0))
	return &Artifacts{
		Sys:    sys,
		Alpha:  alpha,
		Tables: core.NewTables(sys, alpha),
	}
}

// WriteSchedule emits the schedule as a readable listing.
func (ar *Artifacts) WriteSchedule(w io.Writer) error {
	for i, a := range ar.Alpha {
		d := ar.Sys.D.At(ar.Sys.QMin(), a)
		if _, err := fmt.Fprintf(w, "%4d  %-40s deadline=%s\n", i, ar.Sys.Graph.Name(a), d); err != nil {
			return err
		}
	}
	return nil
}

// WriteTables emits the precomputed slack tables, one row per schedule
// position, one (av, wc) pair per level.
func (ar *Artifacts) WriteTables(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# position  action  then per level: slackAv slackWc\n"); err != nil {
		return err
	}
	for i, a := range ar.Alpha {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%4d %-40s", i, ar.Sys.Graph.Name(a))
		for qi := range ar.Sys.Levels {
			fmt.Fprintf(&sb, "  %s %s", ar.Tables.SlackAvAt(qi, i), ar.Tables.SlackWcAt(qi, i))
		}
		sb.WriteByte('\n')
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteC emits a self-contained C-like source listing of the controlled
// application: the schedule array, the slack tables, and the generic
// controller main loop, mirroring what the paper's compiler links
// together. The output is illustrative — the Go controller in
// internal/core is the executable artifact — but it shows the shape and
// size of the instrumentation added to the application (the paper
// reports ~2% code and <=1% memory overhead).
func (ar *Artifacts) WriteC(w io.Writer) error {
	n := len(ar.Alpha)
	nl := len(ar.Sys.Levels)
	var sb strings.Builder
	sb.WriteString("/* Generated by the QoS prototype tool; do not edit. */\n")
	sb.WriteString("#include \"qos_runtime.h\"\n\n")
	fmt.Fprintf(&sb, "#define QOS_N_ACTIONS %d\n", n)
	fmt.Fprintf(&sb, "#define QOS_N_LEVELS  %d\n\n", nl)

	sb.WriteString("/* Schedule alpha: action function pointers in EDF order. */\n")
	sb.WriteString("const qos_action_fn qos_schedule[QOS_N_ACTIONS] = {\n")
	for _, a := range ar.Alpha {
		fmt.Fprintf(&sb, "\t%s,\n", cIdent(ar.Sys.Graph.Name(a)))
	}
	sb.WriteString("};\n\n")

	emitTable := func(name string, get func(qi, i int) core.Cycles) {
		fmt.Fprintf(&sb, "const qos_cycles_t %s[QOS_N_LEVELS][QOS_N_ACTIONS] = {\n", name)
		for qi := 0; qi < nl; qi++ {
			sb.WriteString("\t{")
			for i := 0; i < n; i++ {
				if i > 0 {
					sb.WriteString(", ")
				}
				v := get(qi, i)
				if v.IsInf() {
					sb.WriteString("QOS_INF")
				} else if v < 0 {
					sb.WriteString("QOS_NEVER")
				} else {
					fmt.Fprintf(&sb, "%d", int64(v))
				}
			}
			sb.WriteString("},\n")
		}
		sb.WriteString("};\n\n")
	}
	sb.WriteString("/* Qual_Const^av slack: max elapsed time admitting level q at position i. */\n")
	emitTable("qos_slack_av", func(qi, i int) core.Cycles { return ar.Tables.SlackAvAt(qi, i) })
	sb.WriteString("/* Qual_Const^wc slack: safety bound (worst case next, qmin fallback). */\n")
	emitTable("qos_slack_wc", func(qi, i int) core.Cycles { return ar.Tables.SlackWcAt(qi, i) })

	sb.WriteString(`/* Generic controller main loop (the paper's quality manager). */
void qos_run_cycle(void)
{
	qos_cycles_t t0 = qos_read_cycle_counter();
	for (int i = 0; i < QOS_N_ACTIONS; i++) {
		qos_cycles_t t = qos_read_cycle_counter() - t0;
		int q = 0;
		for (int qi = QOS_N_LEVELS - 1; qi >= 0; qi--) {
			if (t <= qos_slack_av[qi][i] && t <= qos_slack_wc[qi][i]) {
				q = qi;
				break;
			}
		}
		qos_schedule[i](q);
	}
}
`)
	_, err := io.WriteString(w, sb.String())
	return err
}

// cIdent turns an action name into a C identifier.
func cIdent(name string) string {
	var sb strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	s := sb.String()
	if s == "" || (s[0] >= '0' && s[0] <= '9') {
		s = "a_" + s
	}
	return s
}

// InstrumentationReport quantifies the overhead of the generated
// controller in the terms of section 3: added code bytes, table memory,
// and runtime per cycle.
type InstrumentationReport struct {
	ScheduleEntries int
	TableEntries    int
	TableBytes      int
	CodeBytes       int
}

// Instrumentation computes the report for the artifacts.
func (ar *Artifacts) Instrumentation() InstrumentationReport {
	n := len(ar.Alpha)
	nl := len(ar.Sys.Levels)
	return InstrumentationReport{
		ScheduleEntries: n,
		TableEntries:    2 * n * nl,
		TableBytes:      2 * n * nl * 8,
		CodeBytes:       n*48 + 256, // per-site call + generic loop
	}
}
