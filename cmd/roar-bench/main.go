// Command roar-bench regenerates the paper's tables and figures, and
// doubles as CI's bench regression gate.
//
// Usage:
//
//	roar-bench -list
//	roar-bench -run fig6.1
//	roar-bench -run all [-full]
//	roar-bench -check -baseline BENCH_baseline.json BENCH_*.json
//	roar-bench -check -write-baseline -baseline BENCH_baseline.json BENCH_*.json
//
// Quick mode (default) uses laptop-scale parameters; -full runs the
// paper-scale sweeps. Output is one aligned text table per experiment,
// titled with the paper artifact it regenerates; the system's measured
// end-to-end and per-layer numbers are in benchmark/README.md.
//
// -check parses the named `go test -bench` outputs (raw text or the
// -json event stream CI tees into BENCH_*.json) and exits non-zero when
// any metric tracked in the baseline regresses beyond its budget
// (default 25%). -write-baseline instead measures the tracked metric
// list against those files and rewrites the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"roar/internal/bench"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		run      = flag.String("run", "", "experiment id to run, or 'all'")
		full     = flag.Bool("full", false, "paper-scale parameters (slow)")
		check    = flag.Bool("check", false, "bench regression gate: compare result files against -baseline")
		baseline = flag.String("baseline", "BENCH_baseline.json", "baseline file for -check")
		write    = flag.Bool("write-baseline", false, "with -check: rewrite the baseline from the result files")
		thresh   = flag.Float64("check-threshold", 0.25, "default relative regression budget for -check")
	)
	flag.Parse()

	if *check {
		os.Exit(checkGate(*baseline, *write, *thresh, flag.Args()))
	}

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nrun one with: roar-bench -run <id>   (or -run all)")
		}
		return
	}

	exps := bench.All()
	if *run != "all" {
		e, ok := bench.Get(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *run)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}
	quick := !*full
	for _, e := range exps {
		start := time.Now()
		tab, err := e.Run(quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(tab)
		fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// checkGate runs the bench regression gate (or rewrites the baseline)
// over the named result files and returns the process exit code.
func checkGate(baselinePath string, write bool, threshold float64, files []string) int {
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "roar-bench -check: no result files named")
		return 2
	}
	results := bench.BenchResults{}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "roar-bench -check: %v\n", err)
			return 2
		}
		res, err := bench.ParseBenchOutput(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "roar-bench -check: %s: %v\n", path, err)
			return 2
		}
		for name, ms := range res {
			if results[name] == nil {
				results[name] = map[string]float64{}
			}
			for unit, v := range ms {
				results[name][unit] = v
			}
		}
	}

	if write {
		base, err := bench.BuildBaseline(bench.DefaultTracked(), results, threshold)
		if err != nil {
			fmt.Fprintf(os.Stderr, "roar-bench -check -write-baseline: %v\n", err)
			return 2
		}
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "roar-bench -check -write-baseline: %v\n", err)
			return 2
		}
		if err := os.WriteFile(baselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "roar-bench -check -write-baseline: %v\n", err)
			return 2
		}
		fmt.Printf("wrote %s (%d tracked metrics)\n", baselinePath, len(base.Metrics))
		return 0
	}

	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "roar-bench -check: %v\n", err)
		return 2
	}
	var base bench.GateBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "roar-bench -check: parsing %s: %v\n", baselinePath, err)
		return 2
	}
	if base.Threshold <= 0 {
		base.Threshold = threshold
	}
	failures := bench.CheckRegressions(base, results)
	for _, m := range base.Metrics {
		cur, ok := results[m.Bench][m.Unit]
		status := "MISSING"
		if ok {
			status = fmt.Sprintf("%.4g (baseline %.4g)", cur, m.Value)
		}
		fmt.Printf("  %-55s %-10s %s\n", m.Bench, m.Unit, status)
	}
	if len(failures) > 0 {
		fmt.Fprintln(os.Stderr, "bench regression gate FAILED:")
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		return 1
	}
	fmt.Printf("bench regression gate passed: %d metrics within budget\n", len(base.Metrics))
	return 0
}
