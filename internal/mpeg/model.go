package mpeg

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/session"
)

// MaxIterate is the largest iterate count WriteBodyModel accepts: the
// most macroblock bodies whose actions session.ParseModel still builds.
const MaxIterate = session.MaxActions / NumActions

// WriteBodyModel emits the macroblock-body model (the figure 2 graph
// with the figure 5 execution times) in the ".qos" text format:
// 9 actions, the body precedence edges, per-level Motion_Estimate
// times, and the end-of-cycle budget as the deadline of the body's
// sinks (Compress, Reconstruct) — which an iterated model applies to
// the last iteration only. cmd/tablegen uses this to (re)generate
// examples/models/mpeg_body.qos.
func WriteBodyModel(w io.Writer, iterate int, budget core.Cycles) error {
	if iterate < 1 {
		return fmt.Errorf("mpeg: iterate %d must be positive", iterate)
	}
	if iterate > MaxIterate {
		return fmt.Errorf("mpeg: iterate %d exceeds %d: the model would have more than %d actions", iterate, MaxIterate, session.MaxActions)
	}
	if budget <= 0 {
		return fmt.Errorf("mpeg: budget %v must be positive", budget)
	}
	bw := &errWriter{w: w}
	bw.printf("# MPEG-4 macroblock body: the figure 2 precedence graph with the\n")
	bw.printf("# figure 5 execution times (cycles on the paper's 8 GHz platform).\n")
	bw.printf("# Generated by: tablegen -emit-mpeg-body -iterate %d -budget %d\n", iterate, int64(budget))
	bw.printf("levels 0 %d\n", NumLevels-1)
	for _, n := range ActionNames {
		bw.printf("action %s\n", n)
	}
	for _, e := range bodyEdges {
		bw.printf("edge %s %s\n", ActionNames[e[0]], ActionNames[e[1]])
	}
	for a := 0; a < NumActions; a++ {
		if a == MotionEstimate {
			for q, e := range MotionEstimateTimes {
				bw.printf("time %s %d %d %d\n", ActionNames[a], q, int64(e.Av), int64(e.Wc))
			}
			continue
		}
		e := FixedTimes[a]
		bw.printf("time %s * %d %d\n", ActionNames[a], int64(e.Av), int64(e.Wc))
	}
	// The frame budget binds the body's sinks; under "iterate" the
	// parser confines it to the final iteration (end-of-cycle deadline).
	bw.printf("deadline %s * %d\n", ActionNames[Compress], int64(budget))
	bw.printf("deadline %s * %d\n", ActionNames[Reconstruct], int64(budget))
	if iterate > 1 {
		bw.printf("iterate %d\n", iterate)
	}
	return bw.err
}

// errWriter latches the first write error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...interface{}) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
