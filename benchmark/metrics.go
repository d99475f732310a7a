package main

import (
	"math"
	"slices"
	"syscall"
	"time"

	"roar/internal/stats"
)

// metricDef names one metric the benchmark prints. The three tables
// below are the single source of the names: BENCHMARK.json and
// README.md repeat them and the smoke test checks they agree.
type metricDef struct {
	name   string
	unit   string
	higher bool     // true when a larger value is better
	bound  float64  // gated metrics: the share of the parent's median it may worsen by
	on     []string // workloads a report metric is printed for (nil = all)
}

// gatedMetrics is BENCHMARK.json's end_to_end list: the metrics every
// workload emits (the driver's contract wants one set for all
// workloads, never zero), and only those whose run-to-run spread stayed
// well inside the bound on every workload when calibrated; README.md
// has the spreads of the ones left out. ops_per_s counts the workload's
// primary operation: queries on the three read workloads (query_qps),
// records on ingest_drain (put_recs_per_s).
var gatedMetrics = []metricDef{
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", bound: 0.25},
	{name: "setup_s", unit: "s", bound: 0.25},
}

var (
	readWorkloads  = []string{"pps_scan", "index_fanout", "mixed_zipf"}
	writeWorkloads = []string{"mixed_zipf", "ingest_drain"}
)

// reportMetrics are the thirteen end-to-end metrics of the issue, each
// printed for the workloads it is defined on.
var reportMetrics = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "query_qps", unit: "1/s", higher: true, on: []string{"pps_scan", "index_fanout"}},
	{name: "query_p50_ms", unit: "ms", on: readWorkloads},
	{name: "query_p99_ms", unit: "ms", on: readWorkloads},
	{name: "query_slo_frac", unit: "fraction", higher: true, on: []string{"mixed_zipf"}},
	{name: "query_fail_frac", unit: "fraction", on: readWorkloads},
	{name: "put_recs_per_s", unit: "1/s", higher: true, on: []string{"ingest_drain"}},
	{name: "put_ack_p50_ms", unit: "ms", on: writeWorkloads},
	{name: "put_ack_p99_ms", unit: "ms", on: []string{"ingest_drain"}},
	{name: "put_visible_p50_ms", unit: "ms", on: writeWorkloads},
	{name: "put_fail_frac", unit: "fraction", on: writeWorkloads},
	{name: "cpu_ms_per_op", unit: "ms"},
	{name: "peak_rss_mb", unit: "MiB"},
}

// layerMetrics is BENCHMARK.json's per_layer list, printed by the
// traced run; the prefix names the module measured. A layer that takes
// no part in a workload reports 0. README.md says which end-to-end
// metric each should move.
var layerMetrics = []metricDef{
	{name: "frontend.query_us_p50", unit: "us"},
	{name: "frontend.self_us_p50", unit: "us"},
	{name: "frontend.queue_us_p50", unit: "us"},
	{name: "frontend.dispatch_us_p50", unit: "us"},
	{name: "frontend.merge_us_p50", unit: "us"},
	{name: "frontend.subqueries_per_query", unit: "count"},
	{name: "frontend.hedged_legs_per_kquery", unit: "count"},
	{name: "frontend.sub_failures", unit: "count"},
	{name: "frontend.cache_hit_ratio", unit: "fraction", higher: true},
	{name: "frontend.cache_hit_us_p50", unit: "us"},
	{name: "frontend.cache_coalesced", unit: "count", higher: true},
	{name: "frontend.cache_evictions", unit: "count"},
	{name: "frontend.cache_invalidations", unit: "count"},

	{name: "core.schedule_us_p50", unit: "us"},
	{name: "core.plan_subqueries", unit: "count"},

	{name: "proto.query_req_bytes", unit: "bytes"},
	{name: "proto.query_resp_bytes", unit: "bytes"},
	{name: "proto.query_req_encode_ns", unit: "ns"},
	{name: "proto.query_resp_decode_ns", unit: "ns"},
	{name: "proto.put_req_bytes_per_rec", unit: "bytes"},

	{name: "wire.ping_rtt_us_p50", unit: "us"},
	{name: "wire.query_overhead_us_p50", unit: "us"},
	{name: "wire.conns_open", unit: "count"},

	{name: "node.query_us_p50", unit: "us"},
	{name: "node.query_us_p99", unit: "us"},
	{name: "node.match_share", unit: "fraction"},
	{name: "node.scanned_per_query", unit: "count"},
	{name: "node.peak_concurrency", unit: "count"},
	{name: "node.put_us_per_rec", unit: "us"},

	{name: "store.match_arc_us_p50", unit: "us"},
	{name: "store.insert_us_per_rec", unit: "us"},
	{name: "pps.match_ns_per_rec", unit: "ns"},
	{name: "pps.match_allocs_per_rec", unit: "count"},
	{name: "pps.encrypt_doc_us", unit: "us"},
	{name: "pps.encrypt_query_us", unit: "us"},

	{name: "index.search_arc_us_p50", unit: "us"},
	{name: "index.cache_hit_ratio", unit: "fraction", higher: true},
	{name: "index.cache_evictions", unit: "count"},
	{name: "index.cache_resident_bytes", unit: "bytes"},
	{name: "index.open_cold_ms", unit: "ms"},
	{name: "index.segment_bytes_per_doc", unit: "bytes"},

	{name: "ingest.wal_append_us_p50", unit: "us"},
	{name: "ingest.wal_bytes_per_rec", unit: "bytes"},
	{name: "ingest.drain_recs_per_s", unit: "1/s", higher: true},
	{name: "ingest.drain_lag_ms_p50", unit: "ms"},
	{name: "ingest.backlog_recs_end", unit: "count"},
	{name: "ingest.replay_ms_per_krec", unit: "ms"},
	{name: "ingest.segments_end", unit: "count"},

	{name: "membership.ingest_overhead_us_p50", unit: "us"},
	{name: "membership.view_sync_ms", unit: "ms"},
	{name: "membership.load_corpus_s", unit: "s"},

	{name: "load.late_ms_p99", unit: "ms"},
	{name: "load.achieved_qps", unit: "1/s", higher: true},
	{name: "load.inflight_max", unit: "count"},
	{name: "load.trace_overhead_frac", unit: "fraction"},
}

// value is one measured number: the median over the run's segments (or
// the whole window when n counts samples of one window), the spread
// (max - min) / median of those segments, and the samples behind it.
type value struct {
	v      float64
	spread float64
	n      int
}

func sampleOf(xs []float64) *stats.Sample {
	s := stats.NewSample(len(xs))
	s.AddAll(xs)
	return s
}

// percentile returns the q-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for no samples.
func percentile(xs []float64, q float64) float64 { return sampleOf(xs).Percentile(q) }

func mean(xs []float64) float64 { return sampleOf(xs).Mean() }

// acrossSegments reduces one metric's per-segment values to their
// median and spread.
func acrossSegments(segs []float64, n int) value {
	s := sampleOf(segs)
	out := value{v: s.Median(), n: n}
	if out.v != 0 {
		out.spread = (s.Max() - s.Min()) / math.Abs(out.v)
	}
	return out
}

// sample is one completed or refused operation. at is the offset from
// the start of the measured window of the moment that assigns it to a
// segment: completion time in a closed loop, due time in the open loop.
type sample struct {
	at  time.Duration
	lat time.Duration
	ok  bool
}

// segmentOf returns the segment index of a sample, or -1 when it falls
// outside the measured window (warm-up, or still in flight at the end).
func segmentOf(at, window time.Duration, segments int) int {
	if at < 0 || at >= window {
		return -1
	}
	return int(int64(at) * int64(segments) / int64(window))
}

// latencySummary is what one stream of samples yields per run.
type latencySummary struct {
	rate      value // correct operations per second
	p50, p99  value // ms, over correct operations
	perSeg    []int // correct operations per segment
	attempted int
	failed    int
	perSegN   int // smallest per-segment count of correct operations
}

// p99MinSamples is the per-segment sample count below which a segment's
// p99 has fewer than ten samples beyond it; the p99 is then taken over
// the whole window.
const p99MinSamples = 1000

func summarise(samples []sample, window time.Duration, segments int) latencySummary {
	lats := make([][]float64, segments)
	var all []float64
	var out latencySummary
	for _, s := range samples {
		k := segmentOf(s.at, window, segments)
		if k < 0 {
			continue
		}
		out.attempted++
		if !s.ok {
			out.failed++
			continue
		}
		ms := float64(s.lat) / float64(time.Millisecond)
		lats[k] = append(lats[k], ms)
		all = append(all, ms)
	}
	segLen := window.Seconds() / float64(segments)
	rates := make([]float64, segments)
	p50s := make([]float64, segments)
	p99s := make([]float64, segments)
	for k := range lats {
		rates[k] = float64(len(lats[k])) / segLen
		out.perSeg = append(out.perSeg, len(lats[k]))
		p50s[k] = percentile(lats[k], 50)
		p99s[k] = percentile(lats[k], 99)
	}
	out.rate = acrossSegments(rates, len(all))
	out.p50 = acrossSegments(p50s, len(all))
	if slices.Min(out.perSeg) >= p99MinSamples {
		out.p99 = acrossSegments(p99s, len(all))
	} else {
		out.p99 = value{v: percentile(all, 99), n: len(all)}
	}
	return out
}

// usage is the process's CPU time and peak resident set so far.
type usage struct {
	cpu     time.Duration
	peakRSS float64 // MiB
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu, peakRSS: float64(ru.Maxrss) / 1024} // Linux reports KiB
}
