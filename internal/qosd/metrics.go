package qosd

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// latencyBuckets are the per-endpoint request-duration histogram bounds
// in seconds, log-spaced from 50µs to 1s — decide batches sit at the
// bottom, admission waits under load at the top. Durations beyond the
// last bound land in the +Inf bucket.
var latencyBuckets = [...]float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// trackedCodes are the response codes counted per endpoint; anything
// else folds into the "other" slot after them.
var trackedCodes = [...]int{200, 400, 404, 405, 410, 413, 422, 429, 500, 503}

// endpointMetrics accumulates one endpoint's request counts and latency
// histogram. All fields are atomics: the serving path never locks to
// record a sample, and /metrics reads whatever is current. The Daemon
// holds one per endpoint by value.
type endpointMetrics struct {
	codes   [len(trackedCodes) + 1]atomic.Int64   // slot i counts trackedCodes[i], the last slot every other code
	buckets [len(latencyBuckets) + 1]atomic.Int64 // the last is +Inf
	sumNs   atomic.Int64
	count   atomic.Int64
}

// observe records one served request.
func (m *endpointMetrics) observe(code int, d time.Duration) {
	slot := len(trackedCodes)
	for i, c := range trackedCodes {
		if c == code {
			slot = i
			break
		}
	}
	m.codes[slot].Add(1)
	m.buckets[sort.SearchFloat64s(latencyBuckets[:], d.Seconds())].Add(1)
	m.sumNs.Add(d.Nanoseconds())
	m.count.Add(1)
}

// write renders the series of the endpoint named name in Prometheus
// text format.
func (m *endpointMetrics) write(w io.Writer, name string) {
	for i, code := range trackedCodes {
		if n := m.codes[i].Load(); n > 0 {
			fmt.Fprintf(w, "qosd_http_requests_total{endpoint=%q,code=\"%d\"} %d\n", name, code, n)
		}
	}
	if n := m.codes[len(trackedCodes)].Load(); n > 0 {
		fmt.Fprintf(w, "qosd_http_requests_total{endpoint=%q,code=\"other\"} %d\n", name, n)
	}
	cum := int64(0)
	for i, bound := range latencyBuckets {
		cum += m.buckets[i].Load()
		fmt.Fprintf(w, "qosd_http_request_duration_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", name, bound, cum)
	}
	cum += m.buckets[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "qosd_http_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "qosd_http_request_duration_seconds_sum{endpoint=%q} %g\n", name, float64(m.sumNs.Load())/1e9)
	fmt.Fprintf(w, "qosd_http_request_duration_seconds_count{endpoint=%q} %d\n", name, m.count.Load())
}

// handleMetrics renders the whole daemon in Prometheus text format:
// process gauges, per-model runtime / mixer / controller aggregates,
// and per-endpoint HTTP counters and latency histograms.
func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		return writeError(w, http.StatusMethodNotAllowed, "GET required", 0)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintf(w, "# HELP qosd_uptime_seconds Seconds since the daemon started.\n")
	fmt.Fprintf(w, "# TYPE qosd_uptime_seconds gauge\n")
	fmt.Fprintf(w, "qosd_uptime_seconds %g\n", time.Since(d.start).Seconds())
	draining := 0
	if d.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(w, "# TYPE qosd_draining gauge\nqosd_draining %d\n", draining)
	fmt.Fprintf(w, "# HELP qosd_goroutines Goroutines in the daemon process; stable across drain or something leaked.\n")
	fmt.Fprintf(w, "# TYPE qosd_goroutines gauge\nqosd_goroutines %d\n", runtime.NumGoroutine())
	d.mu.Lock()
	active := len(d.streams)
	d.mu.Unlock()
	fmt.Fprintf(w, "# HELP qosd_streams_active Streams currently admitted.\n")
	fmt.Fprintf(w, "# TYPE qosd_streams_active gauge\nqosd_streams_active %d\n", active)

	for _, name := range d.order {
		m := d.models[name]
		rs := m.rt.Stats()
		fmt.Fprintf(w, "qosd_model_sessions_active{model=%q} %d\n", name, rs.ActiveSessions)
		fmt.Fprintf(w, "qosd_model_cycles_total{model=%q} %d\n", name, rs.Cycles)
		fmt.Fprintf(w, "qosd_model_actions_total{model=%q} %d\n", name, rs.Actions)
		fmt.Fprintf(w, "qosd_model_misses_total{model=%q} %d\n", name, rs.Misses)
		fmt.Fprintf(w, "qosd_model_cycle_fallbacks_total{model=%q} %d\n", name, rs.Fallbacks)
		fmt.Fprintf(w, "qosd_model_quarantined_total{model=%q} %d\n", name, rs.Quarantined)

		bs := m.budget.Stats()
		fmt.Fprintf(w, "qosd_budget_total_cycles{model=%q} %d\n", name, int64(bs.Total))
		fmt.Fprintf(w, "qosd_budget_committed_cycles{model=%q} %d\n", name, int64(bs.Committed))
		fmt.Fprintf(w, "qosd_budget_granted_cycles{model=%q} %d\n", name, int64(bs.Granted))
		fmt.Fprintf(w, "qosd_budget_slack_cycles{model=%q} %d\n", name, int64(bs.Slack))
		fmt.Fprintf(w, "qosd_budget_hard_committed_cycles{model=%q} %d\n", name, int64(bs.HardCommitted))
		fmt.Fprintf(w, "qosd_budget_streams{model=%q} %d\n", name, bs.Streams)
		degraded := 0
		if bs.Degraded {
			degraded = 1
		}
		fmt.Fprintf(w, "qosd_budget_degraded{model=%q} %d\n", name, degraded)
		fmt.Fprintf(w, "qosd_budget_soft_demoted{model=%q} %d\n", name, bs.SoftDemoted)
		fmt.Fprintf(w, "qosd_budget_revoked_total{model=%q} %d\n", name, bs.Revoked)
		fmt.Fprintf(w, "qosd_budget_headroom_streams{model=%q} %d\n", name, m.budget.Headroom(m.spec))

		// Every served action is one controller decision: the
		// controller series read the same snapshot as the model's.
		fmt.Fprintf(w, "qosd_controller_decisions_total{model=%q} %d\n", name, rs.Actions)
		fmt.Fprintf(w, "qosd_controller_fallbacks_total{model=%q} %d\n", name, rs.Fallbacks)
		fmt.Fprintf(w, "qosd_controller_level_sum_total{model=%q} %d\n", name, rs.LevelSum)
		fmt.Fprintf(w, "qosd_controller_level_changes_total{model=%q} %d\n", name, rs.LevelChanges)
		fmt.Fprintf(w, "qosd_controller_candidate_evals_total{model=%q} %d\n", name, rs.CandidateEvals)
	}

	for i := range d.metrics {
		d.metrics[i].write(w, endpointNames[i])
	}
	return http.StatusOK
}
