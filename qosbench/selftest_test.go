package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The self-test runs the benchmark the way its users do — run.sh from
// the repository root — briefly, on every workload and in both modes.
//
//	cd qosbench && go test -timeout 20m .

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs one short benchmark and returns its exit code, its last
// stdout line parsed, and its stderr.
func runBench(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	cmd := exec.Command("bash", append([]string{"qosbench/run.sh", "--seed", "5", "--seconds", "1"}, args...)...)
	cmd.Dir = ".."
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("run %v: last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return code, res, stderr.String()
}

// applies reports whether metric measures traffic that workload w sends.
// A metric that does not apply is still printed, as 0: the qosd and
// socket rungs need a wire workload's request bodies and the generator's
// lag an open loop, and only qosd-churn runs an admission client.
func applies(w *workload, metric string) bool {
	switch {
	case strings.HasPrefix(metric, "qosd."), strings.HasPrefix(metric, "wire."), strings.HasPrefix(metric, "loadgen."):
		return w.wire
	case strings.HasPrefix(metric, "e2e.admit_"), metric == "e2e.shed_frac":
		return w.admission != nil
	}
	return true
}

// timed reports whether m is the time of a measured operation, which is
// never zero. Self times are differences of two rungs and may be.
func timed(m specMetric) bool {
	switch m.Unit {
	case "ns", "us", "ms", "s":
		return !strings.Contains(m.Name, ".self_")
	}
	return false
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		wl, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
		for _, mode := range []struct {
			trace string
			want  []specMetric
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
			code, res, stderr := runBench(t, "--workload", w.Name, "--trace", mode.trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, correct=%v, failed %d of %d\n%s",
					w.Name, mode.trace, code, res.Correct, res.Failed, res.Attempted, stderr)
			}
			for _, m := range mode.want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s not printed", w.Name, mode.trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%s: %s printed in %q, BENCHMARK.json says %q", w.Name, mode.trace, m.Name, got.Unit, m.Unit)
				}
				switch {
				case !applies(wl, m.Name) && got.Value != 0:
					t.Errorf("%s trace=%s: %s does not apply but reads %g", w.Name, mode.trace, m.Name, got.Value)
				case applies(wl, m.Name) && timed(m) && got.Value <= 0:
					t.Errorf("%s trace=%s: %s applies but reads %g %s", w.Name, mode.trace, m.Name, got.Value, m.Unit)
				}
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%s: printed %d metrics, BENCHMARK.json names %d", w.Name, mode.trace, len(res.Metrics), len(mode.want))
			}
		}
	}
}

func TestInjectedOverrunFailsTheMissCheck(t *testing.T) {
	for _, w := range []string{"embedded", "qosd-churn"} {
		code, res, stderr := runBench(t, "--workload", w, "--trace", "0", "--inject-overrun")
		if code == 0 || res.Correct {
			t.Errorf("%s: a cost above Cwc passed the checks (exit %d, correct=%v)", w, code, res.Correct)
		}
		if !strings.Contains(stderr, "deadline misses") {
			t.Errorf("%s: no miss reported:\n%s", w, stderr)
		}
	}
}
