package platform

import "repro/internal/core"

// The paper reports, for a single processor without OS and a readable
// cycle register, instrumentation overheads of ~2% code size, <=1% memory
// and <1.5% runtime. The executor charges the runtime component: the
// cycles a generated controller burns per decision.

// DefaultDecisionOverhead is the per-decision controller cost charged by
// Executor. One decision on the table fast path is: read cycle register,
// walk at most |Q| precomputed slack pairs, write the chosen level —
// a few hundred cycles on a XiRisc-class core.
const DefaultDecisionOverhead core.Cycles = 150
