// Command benchmark is the repository's end-to-end and per-layer
// benchmark: four workloads against an in-process, un-throttled ROAR
// cluster (8 nodes, real loopback TCP), every answer checked against an
// oracle computed outside the cluster. BENCHMARK.json at the repository
// root names the command, the workloads and the metrics; README.md in
// this directory is the metric dictionary.
//
//	bash benchmark/run.sh                          every workload, one child process each
//	bash benchmark/run.sh -trace 1                 the traced run: per-layer metrics, span files
//	bash benchmark/run.sh -repeat 10               ten rounds on ten seeds, medians and spreads
//	bash benchmark/run.sh -workload pps_scan -seed 7 -seconds 15 -trace 0
//
// The last form is the one the driver uses; its last output line is one
// JSON object.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
)

// defaultSeconds must equal BENCHMARK.json's run_seconds: three
// segments of five seconds, the shortest the time cap leaves.
const defaultSeconds = 15

// options is one run's command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	repeat   int
	rate     float64
	outDir   string
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := mainErr(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "run this one workload in this process (default: all, one child process each)")
	fs.Int64Var(&opt.seed, "seed", 1, "seeds every generator: corpus, query pool, Zipf, Poisson")
	fs.IntVar(&opt.seconds, "seconds", defaultSeconds, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 = the traced run, which prints the per-layer metrics")
	fs.IntVar(&opt.repeat, "repeat", 1, "rounds over all workloads, round i on seed+i; prints medians and spreads")
	fs.Float64Var(&opt.rate, "rate", mixedRateQPS, "mixed_zipf arrivals per second; 0 = closed loop, to calibrate the rate")
	fs.StringVar(&opt.outDir, "out", "benchmark/out", "directory for span files and scratch data")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if opt.seconds < 1 || opt.repeat < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("need -seconds >= 1, -repeat >= 1 and -trace 0 or 1")
	}
	opt.trace = trace == 1
	if opt.workload == "" {
		return runAll(ctx, opt, stdout)
	}
	def, ok := findWorkload(opt.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	res, err := runOne(ctx, def, fullSizes, opt, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// result is the last line of a run: the driver's contract.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process and prints its report.
func runOne(ctx context.Context, def workloadDef, sz sizes, opt options, stdout io.Writer) (result, error) {
	header(stdout, def, opt)
	if opt.trace {
		sz.setups = 1 // setup_s belongs to the untraced run
	}
	e, err := setUp(def, sz, opt.seed, opt.outDir, opt.seconds)
	if err != nil {
		return result{}, err
	}
	defer e.close()
	res := result{Metrics: map[string]measured{}}

	if opt.trace {
		layers, attempted, failed, err := runTraced(ctx, e, opt)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(stdout, "%-36s %14s  %s\n", "per-layer metric", "value", "unit")
		for _, m := range layerMetrics {
			fmt.Fprintf(stdout, "%-36s %14.4f  %s\n", m.name, layers[m.name], m.unit)
			res.Metrics[m.name] = measured{Value: layers[m.name], Unit: m.unit}
		}
		fmt.Fprintf(stdout, "counts (bytes, sub-queries, scanned, allocations) are exact and repeat for one seed on the closed loops; times are this sandbox's loopback and filesystem\n")
		fmt.Fprintf(stdout, "spans: %s/trace-%s.json\n", opt.outDir, def.name)
		res.Attempted, res.Failed = attempted, failed
	} else {
		d := measure(ctx, e, opt)
		printValues(stdout, "end-to-end metric", reportMetrics, d.report, def.name)
		printValues(stdout, "emitted for every workload", gatedMetrics, d.gated, def.name)
		for _, n := range d.notes {
			fmt.Fprintln(stdout, "note:", n)
		}
		for _, m := range gatedMetrics {
			res.Metrics[m.name] = measured{Value: d.gated[m.name].v, Unit: m.unit}
		}
		res.Attempted, res.Failed = d.attempted, d.failed
	}
	if err := ctx.Err(); err != nil {
		return result{}, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(stdout, "oracle: %d operations checked, %d failed\n", res.Attempted, res.Failed)
	return res, nil
}

// measure is the untraced run of e's workload.
func measure(ctx context.Context, e *env, opt options) described {
	var r run
	switch e.def.name {
	case "mixed_zipf":
		r = runMixed(ctx, e, opt.seed, opt.seconds, opt.rate, nil)
	case "ingest_drain":
		r = runIngest(ctx, e, opt.seconds)
	default:
		r = runClosedQueries(ctx, e, opt.seed, opt.seconds)
	}
	return describe(e, r, opt.seconds)
}

func header(w io.Writer, def workloadDef, opt options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	mode := "measured"
	if opt.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s run) commit=%s %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%d\n",
		def.name, mode, commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), opt.seed, opt.seconds)
	load := fmt.Sprintf("closed loop, %d clients", clients())
	switch def.name {
	case "mixed_zipf":
		load = fmt.Sprintf("open loop, Poisson %.0f/s, in-flight cap %d, one writer %v apart", opt.rate, inflightCap, writePeriod)
	case "ingest_drain":
		load = "closed loop, 1 writer; WAL flush policy: the default, fsync per group commit"
	}
	fmt.Fprintf(w, "   %s; p=%d of %d nodes; %s\n", load, def.p, clusterNodes, def.why)
}

// printValues prints the metrics of defs that apply to the workload.
func printValues(w io.Writer, title string, defs []metricDef, vals map[string]value, workload string) {
	fmt.Fprintf(w, "%-28s %14s  %-9s %8s %9s\n", title, "value", "unit", "spread", "samples")
	for _, m := range defs {
		if m.on != nil && !slices.Contains(m.on, workload) {
			continue
		}
		v, ok := vals[m.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-28s %14.4f  %-9s %8.3f %9d\n", m.name, v.v, m.unit, v.spread, v.n)
	}
}

// runAll runs every workload, each in a child process of its own so
// that CPU time and peak memory are per workload, opt.repeat times, and
// summarises the rounds.
func runAll(ctx context.Context, opt options, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	rounds := map[key][]float64{}
	units := map[string]string{}
	failed := false
	for round := 0; round < opt.repeat; round++ {
		for _, def := range workloads {
			trace := "0"
			if opt.trace {
				trace = "1"
			}
			cmd := exec.CommandContext(ctx, self,
				"-workload", def.name, "-seed", fmt.Sprint(opt.seed+int64(round)), "-seconds", fmt.Sprint(opt.seconds),
				"-trace", trace, "-rate", fmt.Sprint(opt.rate), "-out", opt.outDir)
			var out bytes.Buffer
			cmd.Stdout = io.MultiWriter(stdout, &out)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", def.name, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s: last line is not a result: %w", def.name, err)
			}
			failed = failed || !res.Correct
			for name, m := range res.Metrics {
				rounds[key{def.name, name}] = append(rounds[key{def.name, name}], m.Value)
				units[name] = m.Unit
			}
		}
	}
	if opt.repeat > 1 {
		fmt.Fprintf(stdout, "\n== %d rounds, seeds %d..%d: median, quartile spread (q3-q1)/median as the driver takes it, and every round\n",
			opt.repeat, opt.seed, opt.seed+int64(opt.repeat)-1)
		keys := make([]key, 0, len(rounds))
		for k := range rounds {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].workload != keys[b].workload {
				return keys[a].workload < keys[b].workload
			}
			return keys[a].metric < keys[b].metric
		})
		for _, k := range keys {
			vs := rounds[k]
			med := percentile(vs, 50)
			fmt.Fprintf(stdout, "%-13s %-34s %-8s median %12.4f  iqr/median %6.3f  %s\n",
				k.workload, k.metric, units[k.metric], med, quartileSpread(vs), formatAll(vs))
		}
	}
	if failed {
		return fmt.Errorf("an answer failed the oracle")
	}
	return nil
}

// quartileSpread is (q3 - q1) / median with the quartiles of Python's
// statistics.quantiles(values, n=4), the exclusive method, which is the
// statistic the driver gates on.
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		m := len(s) + 1
		j := min(max(k*m/4, 1), len(s)-1)
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

func formatAll(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
