// Bench regression gate: parses `go test -bench` output (the -json
// stream CI tees into BENCH_*.json artifacts, or raw text), compares
// the tracked metrics against a committed baseline, and fails when any
// of them regresses beyond its budget. cmd/roar-bench -check is the CLI
// over this; CI runs it right after the bench-smoke steps so a PR that
// adds an allocation to the scan kernel or sheds a query across a
// leader failover turns the job red instead of landing.
package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// BenchResults maps benchmark name (GOMAXPROCS suffix stripped) to
// unit ("ns/op", "queries/s", ...) to the mean observed value.
type BenchResults map[string]map[string]float64

// testEvent is the `go test -json` line shape. Test carries the
// benchmark name for result lines (in -json mode the name and the
// measurements arrive in separate output events).
type testEvent struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// gomaxprocsSuffix strips the trailing "-N" go test appends to
// benchmark names (BenchmarkFoo/sub-case-8 → BenchmarkFoo/sub-case).
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// ParseBenchOutput reads benchmark result lines from r — either raw
// `go test -bench` text or the `-json` event stream — and returns the
// per-benchmark metric means (averaged when a benchmark reports more
// than one line).
func ParseBenchOutput(r io.Reader) (BenchResults, error) {
	res := BenchResults{}
	counts := map[string]map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		eventTest := ""
		if strings.HasPrefix(strings.TrimSpace(line), "{") {
			var ev testEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				continue // interleaved non-JSON noise
			}
			if ev.Action != "output" {
				continue
			}
			line = strings.TrimSuffix(ev.Output, "\n")
			eventTest = ev.Test
		}
		name, metrics, ok := parseBenchLine(line, eventTest)
		if !ok {
			continue
		}
		if res[name] == nil {
			res[name] = map[string]float64{}
			counts[name] = map[string]int{}
		}
		for unit, v := range metrics {
			res[name][unit] += v
			counts[name][unit]++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: reading results: %w", err)
	}
	for name, ms := range res {
		for unit := range ms {
			ms[unit] /= float64(counts[name][unit])
		}
	}
	return res, nil
}

// parseBenchLine parses one benchmark result line into its metric
// pairs. Raw `go test -bench` output carries the name inline
// ("BenchmarkName-8  10  123 ns/op  45 u/s"); the -json event stream
// splits them, with the name in the event's Test field and the line
// holding only "  10  123 ns/op  45 u/s" — eventTest covers that case.
func parseBenchLine(line, eventTest string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	var name string
	switch {
	case len(fields) >= 4 && strings.HasPrefix(fields[0], "Benchmark"):
		name = gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		fields = fields[1:]
	case strings.HasPrefix(eventTest, "Benchmark"):
		name = eventTest
	default:
		return "", nil, false
	}
	if len(fields) < 3 {
		return "", nil, false
	}
	if _, err := strconv.Atoi(fields[0]); err != nil {
		return "", nil, false // not an iteration count: a header or log line
	}
	metrics := map[string]float64{}
	for i := 1; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			break
		}
		metrics[fields[i+1]] = v
	}
	if len(metrics) == 0 {
		return "", nil, false
	}
	return name, metrics, true
}

// GateMetric is one tracked baseline entry.
type GateMetric struct {
	// Bench is the benchmark name with the GOMAXPROCS suffix stripped,
	// e.g. "BenchmarkFrontendThroughput/pipelined-pool4".
	Bench string `json:"bench"`
	// Unit selects which reported metric to compare ("queries/s",
	// "ns/op", "p99-ms", ...).
	Unit string `json:"unit"`
	// HigherBetter orients the comparison.
	HigherBetter bool `json:"higher_better"`
	// Value is the baseline measurement.
	Value float64 `json:"value"`
	// Threshold overrides the baseline-wide regression budget for this
	// metric (fraction, e.g. 0.25 = 25%). 0 uses the default.
	Threshold float64 `json:"threshold,omitempty"`
}

// GateBaseline is the committed BENCH_baseline.json shape.
type GateBaseline struct {
	// Threshold is the default relative regression budget. 0 = 0.25.
	Threshold float64      `json:"threshold"`
	Metrics   []GateMetric `json:"metrics"`
}

// DefaultTracked names the metrics the gate follows: exact counts
// only, which are the same on any machine. Wall-clock regressions
// (throughput, latency, CPU, memory) are benchmark/'s job: it measures
// them end to end with alternating paired runs and a noise bound, which
// a single -benchtime 1x sample against a committed number cannot do.
func DefaultTracked() []GateMetric {
	return []GateMetric{
		// The scan kernel allocates nothing per record, keyed per scan or
		// from stored schedules (what store.MatchArc pays).
		{Bench: "BenchmarkMatchKernel/kernel", Unit: "allocs/op"},
		{Bench: "BenchmarkMatchKernel/scheduled", Unit: "allocs/op"},
		// One leg of a p = 8 index fan-out with a top-20 cut.
		{Bench: "BenchmarkIndexMatch/arc-1of8-top20", Unit: "allocs/op"},
		// The data plane never touches the coordinator, so a leader kill
		// shedding even one query is a wiring regression, not noise.
		{Bench: "BenchmarkFailover", Unit: "queries-shed"},
		// A victim tenant under its quota being shed at all is a fairness
		// regression, not noise.
		{Bench: "BenchmarkResultCache/tenant-isolation", Unit: "victim-shed-pct"},
	}
}

// CheckRegressions compares results against the baseline and returns
// one failure line per regressed or missing metric (empty = gate
// passes). A missing metric is a failure: silently dropping a tracked
// benchmark is exactly the regression-shaped hole the gate exists to
// close.
func CheckRegressions(base GateBaseline, res BenchResults) []string {
	def := base.Threshold
	if def <= 0 {
		def = 0.25
	}
	var failures []string
	for _, m := range base.Metrics {
		thr := m.Threshold
		if thr <= 0 {
			thr = def
		}
		cur, ok := res[m.Bench][m.Unit]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s %s: metric missing from results (baseline %.4g)", m.Bench, m.Unit, m.Value))
			continue
		}
		if m.HigherBetter {
			floor := m.Value * (1 - thr)
			if cur < floor {
				failures = append(failures, fmt.Sprintf("%s %s: %.4g below baseline %.4g by more than %.0f%% (floor %.4g)",
					m.Bench, m.Unit, cur, m.Value, thr*100, floor))
			}
		} else {
			// A zero baseline (e.g. 0 allocs/op) regresses on ANY growth.
			ceil := m.Value * (1 + thr)
			if cur > ceil {
				failures = append(failures, fmt.Sprintf("%s %s: %.4g above baseline %.4g by more than %.0f%% (ceiling %.4g)",
					m.Bench, m.Unit, cur, m.Value, thr*100, ceil))
			}
		}
	}
	return failures
}

// BuildBaseline fills the tracked metric list with values measured in
// res, erroring on any tracked metric the results do not contain (a
// baseline with holes would silently untrack them).
func BuildBaseline(tracked []GateMetric, res BenchResults, threshold float64) (GateBaseline, error) {
	base := GateBaseline{Threshold: threshold}
	var missing []string
	for _, m := range tracked {
		v, ok := res[m.Bench][m.Unit]
		if !ok {
			missing = append(missing, m.Bench+" "+m.Unit)
			continue
		}
		m.Value = v
		base.Metrics = append(base.Metrics, m)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return base, fmt.Errorf("bench: results missing tracked metrics: %s", strings.Join(missing, ", "))
	}
	return base, nil
}
