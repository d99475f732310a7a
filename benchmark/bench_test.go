package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"roar/internal/testutil/leakcheck"
)

// TestMain fails the binary if a goroutine outlives the clusters the
// tests closed.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// smallSizes runs every workload in about a second: a 500-document
// corpus and segments of a third of a second.
var smallSizes = sizes{
	ppsDocs: 500, indexDocs: 5000, indexVocab: 300, indexTop: 60,
	pool: 64, warmup: 200 * time.Millisecond, setups: 1, segments: 3,
}

func smallOptions(t *testing.T, trace bool) options {
	return options{seed: 1, seconds: 1, trace: trace, rate: mixedRateQPS, outDir: t.TempDir()}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func better(m metricDef) string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkFileAgrees holds BENCHMARK.json to the tables in
// metrics.go and setup.go: same names, units, directions and order.
func TestBenchmarkFileAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(raw))
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, program has %q", i, f.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	compare := func(kind string, file []fileMetric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Fatalf("%s: %d metrics in the file, %d in the program", kind, len(file), len(defs))
		}
		for i, m := range defs {
			fm := file[i]
			if fm.Name != m.name || fm.Unit != m.unit || fm.Better != better(m) {
				t.Errorf("%s %d: file has %+v, program has %s %s %s", kind, i, fm, m.name, m.unit, better(m))
			}
			if !name.MatchString(fm.Name) || !unit.MatchString(fm.Unit) {
				t.Errorf("%s %s: name or unit outside the contract's alphabet", kind, fm.Name)
			}
			if bounded != (fm.Bound != nil) || (bounded && (*fm.Bound <= 0 || *fm.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, fm.Name, fm.Bound)
			}
		}
	}
	compare("end_to_end", f.EndToEnd, gatedMetrics, true)
	compare("per_layer", f.PerLayer, layerMetrics, false)
}

func finite(t *testing.T, workload string, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, want %d", workload, len(res.Metrics), len(defs))
	}
	for _, m := range defs {
		got, ok := res.Metrics[m.name]
		if !ok {
			t.Errorf("%s: %s not emitted", workload, m.name)
			continue
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Unit != m.unit {
			t.Errorf("%s: %s = %v %s", workload, m.name, got.Value, got.Unit)
		}
	}
}

// exactLayerMetrics are counts, not times: they must repeat exactly for
// one seed on the closed-loop workloads.
var exactLayerMetrics = []string{
	"frontend.subqueries_per_query", "core.plan_subqueries", "proto.query_req_bytes", "proto.query_resp_bytes",
	"proto.put_req_bytes_per_rec", "node.scanned_per_query", "index.segment_bytes_per_doc", "ingest.wal_bytes_per_rec",
}

// TestMeasuredRuns runs each workload small: every end-to-end metric
// BENCHMARK.json names comes out, finite and non-zero, every answer
// passes the oracle, and the layers separate as designed: the bypass
// workloads never touch the result cache, the mixed one does, and
// ingest_drain sends no query before its final check.
func TestMeasuredRuns(t *testing.T) {
	ctx := context.Background()
	for _, def := range workloads {
		opt := smallOptions(t, false)
		e, err := setUp(def, smallSizes, opt.seed, opt.outDir, opt.seconds)
		if err != nil {
			t.Fatal(err)
		}
		d := measure(ctx, e, opt)
		if d.attempted == 0 || d.failed != 0 {
			t.Errorf("%s: attempted=%d failed=%d %v", def.name, d.attempted, d.failed, d.notes)
		}
		if len(d.gated) != len(gatedMetrics) {
			t.Errorf("%s: %d end-to-end metrics, want %d", def.name, len(d.gated), len(gatedMetrics))
		}
		for _, m := range gatedMetrics {
			if v := d.gated[m.name].v; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s is %v, must be finite and never 0", def.name, m.name, v)
			}
		}
		for _, m := range reportMetrics {
			if _, ok := d.report[m.name]; (m.on == nil || slices.Contains(m.on, def.name)) && !ok {
				t.Errorf("%s: report lacks %s", def.name, m.name)
			}
		}
		cache := e.c.FE.CacheStats()
		lookups := cache.Hits + cache.Misses
		switch {
		case def.cache && cache.Hits == 0:
			t.Errorf("%s: no cache hit in %d lookups", def.name, lookups)
		case !def.cache && lookups != 0:
			t.Errorf("%s: %d cache lookups on a bypass workload", def.name, lookups)
		}
		if def.name == "ingest_drain" {
			var queries int64
			for _, n := range e.c.Nodes() {
				queries += n.Stats().Queries
			}
			// The final sentinel check is one query of p legs.
			if queries != int64(def.p) {
				t.Errorf("ingest_drain: %d node queries, want only the final check's %d", queries, def.p)
			}
		}
		e.close()
	}
}

// TestTracedRuns runs each workload traced, through the same entry
// point as the command line: every per-layer metric comes out, finite,
// and the exact counts repeat for one seed on the closed loops.
func TestTracedRuns(t *testing.T) {
	ctx := context.Background()
	for _, def := range workloads {
		first, err := runOne(ctx, def, smallSizes, smallOptions(t, true), io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", def.name, err)
		}
		finite(t, def.name, first, layerMetrics)
		if !first.Correct {
			t.Errorf("%s traced: %d of %d failed", def.name, first.Failed, first.Attempted)
		}
		if def.loop != "closed" {
			continue
		}
		second, err := runOne(ctx, def, smallSizes, smallOptions(t, true), io.Discard)
		if err != nil {
			t.Fatalf("%s traced again: %v", def.name, err)
		}
		for _, name := range exactLayerMetrics {
			if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
				t.Errorf("%s: %s is %v then %v for one seed", def.name, name, a, b)
			}
		}
	}
}

// TestOracleRejectsWrongAnswers corrupts correct answers in the ways a
// fast wrong implementation would: an id missing, an id that does not
// match, an unknown id, a duplicate, and the wrong order.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	for _, name := range []string{"pps_scan", "index_fanout"} {
		def, _ := findWorkload(name)
		e, err := setUp(def, smallSizes, 1, t.TempDir(), 1)
		if err != nil {
			t.Fatal(err)
		}
		var q *poolQuery
		for i := range e.pool {
			if len(e.pool[i].want) >= 2 {
				q = &e.pool[i]
				break
			}
		}
		if q == nil {
			t.Fatalf("%s: no pooled query with two answers", name)
		}
		res, err := e.c.FE.Query(context.Background(), q.spec)
		if err != nil {
			t.Fatal(err)
		}
		if !e.check(q, res.IDs, 0, 0) {
			t.Fatalf("%s: the cluster's own answer fails the oracle", name)
		}
		good := res.IDs
		inWant := map[uint64]bool{}
		for _, id := range q.want {
			inWant[id] = true
		}
		var stranger uint64 // a real record that does not match q
		for _, d := range e.docs {
			if !inWant[d.ID] {
				stranger = d.ID
				break
			}
		}
		for _, d := range e.idocs {
			if !inWant[d.id] {
				stranger = d.id
				break
			}
		}
		sorted := func(ids ...uint64) []uint64 {
			out := slices.Clone(ids)
			slices.Sort(out)
			return out
		}
		wrong := map[string][]uint64{
			"empty":        nil,
			"id missing":   good[1:],
			"non-matching": sorted(append([]uint64{stranger}, good...)...),
			"unknown id":   sorted(append([]uint64{good[0] + 1}, good...)...),
			"duplicate":    append([]uint64{good[0]}, good...),
			"unordered":    append(append([]uint64(nil), good[1:]...), good[0]),
		}
		for what, ids := range wrong {
			if e.check(q, ids, 0, 0) {
				t.Errorf("%s: oracle accepted an answer with %s", name, what)
			}
		}
		e.close()
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
