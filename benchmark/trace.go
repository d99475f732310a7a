package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"roar/internal/core"
	"roar/internal/frontend"
	"roar/internal/index"
	"roar/internal/ingest"
	"roar/internal/node"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/store"
	"roar/internal/wire"
)

// The traced run measures the layers from outside: spans around the
// harness's own calls into each layer's public API, the numbers the
// program already returns, and, for every replayEvery-th request, a
// replay of that request layer by layer on the live cluster. No span is
// recorded inside the program.
const replayEvery = 10

// tracedOpsPerSecond sizes the closed-loop traced runs: a fixed count
// of operations per second of -seconds, first untraced, then traced, so
// that the exact counts repeat for one seed. The counts are about a
// third of what one client manages here, which keeps the run inside
// the time cap on a slower machine.
var tracedOpsPerSecond = map[string]int{"pps_scan": 50, "index_fanout": 400, "ingest_drain": 100}

// span is one timed call. Spans of one request share req; parent is the
// id of the span that caused it (0 for a root). derived marks a span
// laid out from durations the program returned (frontend.Result) rather
// than timed by the harness.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(name string, req, parent int, start, end time.Time, derived bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)), Derived: derived,
	})
	return id
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of
// it its children cover (children clipped to the parent, overlaps
// counted once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		covered := int64(0)
		ks := kids[s.ID]
		// Children arrive in start order: the tracer appends in call order.
		edge := s.StartNS
		for _, k := range ks {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// series collects the traced run's raw numbers by metric name.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceState is one traced run.
type traceState struct {
	e   *env
	tr  *tracer
	raw series
	req int

	pl      *core.Placement
	view    proto.View
	nodes   map[ring.NodeID]*node.Node
	clients map[ring.NodeID]*wire.Client
	buf     []byte

	mu      sync.Mutex           // the open loop observes from many goroutines
	fanouts []int                // root spans that fanned out (not cache hits)
	replays []frontend.QuerySpec // open loop: replayed after the window
	ackUS   []float64            // IngestPut call -> ack
}

func newTraceState(e *env) (*traceState, error) {
	ts := &traceState{
		e: e, tr: &tracer{t0: time.Now()}, raw: series{},
		nodes: map[ring.NodeID]*node.Node{}, clients: map[ring.NodeID]*wire.Client{},
	}
	ts.view = e.c.FE.View()
	r := ring.New()
	for _, ni := range ts.view.Nodes {
		if err := r.Insert(ring.NodeID(ni.ID), ring.Norm(ni.Start)); err != nil {
			return nil, err
		}
		ts.clients[ring.NodeID(ni.ID)] = wire.NewClient(ni.Addr)
	}
	var err error
	if ts.pl, err = core.NewPlacement(ts.view.P, r); err != nil {
		return nil, err
	}
	for i, id := range e.c.NodeIDs() {
		ts.nodes[id] = e.c.Nodes()[i]
	}
	return ts, nil
}

func (ts *traceState) close() {
	for _, cl := range ts.clients {
		cl.Close()
	}
}

// observe records one request the harness sent through Frontend.Query:
// the root span, the phase spans laid out from the Result, and the
// counts the Result carries.
func (ts *traceState) observe(start, end time.Time, res frontend.Result) int {
	ts.req++
	root := ts.tr.add("frontend.Query", ts.req, 0, start, end, false)
	ts.raw.add("frontend.query_us", us(end.Sub(start)))
	if res.Source == frontend.SourceCache {
		ts.raw.add("frontend.cache_hit_us", us(end.Sub(start)))
		return ts.req
	}
	ts.fanouts = append(ts.fanouts, root)
	at := start
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{
		{"frontend.queue", res.Queue}, {"core.Schedule", res.Schedule},
		{"frontend.dispatch", res.Dispatch}, {"frontend.merge", res.Merge},
	} {
		ts.tr.add(ph.name, ts.req, root, at, at.Add(ph.d), true)
		at = at.Add(ph.d)
	}
	ts.raw.add("frontend.queue_us", us(res.Queue))
	ts.raw.add("frontend.dispatch_us", us(res.Dispatch))
	ts.raw.add("frontend.merge_us", us(res.Merge))
	ts.raw.add("frontend.subqueries", float64(res.SubQueries))
	ts.raw.add("frontend.hedged_legs", float64(res.HedgedSubs))
	ts.raw.add("frontend.sub_failures", float64(res.Failures))
	ts.raw.add("node.scanned", float64(res.Scanned))
	return ts.req
}

// replay runs one request again a layer at a time: schedule, then per
// leg the codec, the wire call, the same call straight into the node,
// and the matcher under it.
func (ts *traceState) replay(ctx context.Context, req int, spec frontend.QuerySpec) error {
	t0 := time.Now()
	parent := ts.tr.add("replay", req, 0, t0, t0, false)
	timed := func(name string, fn func() error) (time.Duration, error) {
		t := time.Now()
		err := fn()
		end := time.Now()
		ts.tr.add(name, req, parent, t, end, false)
		return end.Sub(t), err
	}

	var plan core.Plan
	// The frontend's own estimator is private; a uniform one prices the
	// algorithm, which is what a scheduling change would move.
	uniform := core.EstimatorFunc(func(_ ring.NodeID, size float64) float64 { return size })
	d, err := timed("core.Schedule", func() (err error) {
		plan, err = ts.pl.Schedule(ts.view.P, uniform)
		return err
	})
	if err != nil {
		return err
	}
	ts.raw.add("core.schedule_us", us(d))
	ts.raw.add("core.plan_subqueries", float64(len(plan.Subs)))

	for _, sub := range plan.Subs {
		qreq := proto.QueryReq{QID: uint64(req), Lo: float64(sub.Lo), Hi: float64(sub.Hi), Q: spec.Enc, Plain: spec.Plain}
		d, _ := timed("proto.QueryReq.AppendWire", func() error {
			ts.buf = qreq.AppendWire(ts.buf[:0])
			return nil
		})
		ts.raw.add("proto.query_req_encode_ns", float64(d))
		ts.raw.add("proto.query_req_bytes", float64(len(ts.buf)))

		var resp proto.QueryResp
		viaWire, err := timed("wire.Client.Call", func() error {
			return ts.clients[sub.Node].Call(ctx, proto.MNodeQuery, qreq, &resp)
		})
		if err != nil {
			return err
		}
		direct, err := timed("node.Query", func() error {
			_, err := ts.nodes[sub.Node].Query(ctx, qreq)
			return err
		})
		if err != nil {
			return err
		}
		ts.raw.add("node.query_us", us(direct))
		ts.raw.add("wire.query_overhead_us", us(viaWire-direct))
		ts.raw.add("node.match_share", float64(resp.MatchNanos)/float64(viaWire))

		// The reply's one timing field is zeroed so that its size is a
		// count that repeats exactly.
		resp.MatchNanos = 0
		body := resp.AppendWire(nil)
		ts.raw.add("proto.query_resp_bytes", float64(len(body)))
		d, err = timed("proto.QueryResp.DecodeWire", func() error {
			var back proto.QueryResp
			return back.DecodeWire(body)
		})
		if err != nil {
			return err
		}
		ts.raw.add("proto.query_resp_decode_ns", float64(d))

		n := ts.nodes[sub.Node]
		if spec.Plain != nil {
			q := index.Query{Terms: spec.Plain.Terms, Mode: index.Mode(spec.Plain.Mode), MinMatch: spec.Plain.MinMatch, Limit: spec.Plain.Limit}
			d, err = timed("index.SearchArc", func() error {
				_, _, err := n.Index().SearchArc(ctx, q, store.IDOf(sub.Lo), store.IDOf(sub.Hi), ring.MatchSpan(sub.Lo, sub.Hi) >= 1)
				return err
			})
			ts.raw.add("index.search_arc_us", us(d))
		} else {
			d, err = timed("store.MatchArc", func() error {
				_, _, err := n.Store().MatchArc(ctx, ts.e.matcher, spec.Enc, sub.Lo, sub.Hi, store.MatchOptions{Threads: 1})
				return err
			})
			ts.raw.add("store.match_arc_us", us(d))
		}
		if err != nil {
			return err
		}
	}
	ts.tr.mu.Lock()
	ts.tr.spans[parent-1].EndNS = int64(time.Since(ts.tr.t0))
	ts.tr.mu.Unlock()
	return nil
}

// runTraced is the -trace 1 run of one workload. It returns the
// per-layer metrics and the operations attempted and failed.
func runTraced(ctx context.Context, e *env, opt options) (map[string]float64, int, int, error) {
	ts, err := newTraceState(e)
	if err != nil {
		return nil, 0, 0, err
	}
	defer ts.close()
	out := map[string]float64{}
	for _, m := range layerMetrics {
		out[m.name] = 0
	}
	cache0 := e.c.FE.CacheStats()
	var attempted, failed int
	var plain, traced []float64 // primary-operation latency, ms, without and with tracing

	n := tracedOpsPerSecond[e.def.name] * opt.seconds
	switch e.def.name {
	case "pps_scan", "index_fanout":
		rng := rand.New(rand.NewSource(opt.seed))
		for i := 0; i < 2*n && ctx.Err() == nil; i++ {
			qi := rng.Intn(len(e.pool))
			start := time.Now()
			res, lat, ok := e.query(ctx, qi, nil)
			attempted++
			if !ok {
				failed++
				continue
			}
			if i < n {
				plain = append(plain, ms(lat))
				continue
			}
			traced = append(traced, ms(lat))
			req := ts.observe(start, start.Add(lat), res)
			if req%replayEvery == 0 {
				if err := ts.replay(ctx, req, e.pool[qi].spec); err != nil {
					return nil, 0, 0, err
				}
			}
		}
		out["load.inflight_max"] = 1
	case "mixed_zipf":
		half := time.Duration(opt.seconds) * time.Second / 2
		r := runMixed(ctx, e, opt.seed, opt.seconds, opt.rate, func(qi int, due time.Duration, start, end time.Time, res frontend.Result) {
			if due < half {
				return
			}
			ts.mu.Lock()
			defer ts.mu.Unlock()
			if req := ts.observe(start, end, res); req%replayEvery == 0 {
				ts.replays = append(ts.replays, e.pool[qi].spec)
			}
		})
		for _, s := range r.queries {
			if s.at < 0 {
				continue
			}
			attempted++
			switch {
			case !s.ok:
				failed++
			case s.at < half:
				plain = append(plain, ms(s.lat))
			default:
				traced = append(traced, ms(s.lat))
			}
		}
		for i, spec := range ts.replays {
			if err := ts.replay(ctx, (i+1)*replayEvery, spec); err != nil {
				return nil, 0, 0, err
			}
		}
		out["load.late_ms_p99"] = percentile(r.late, 99)
		out["load.achieved_qps"] = float64(len(plain)+len(traced)) / float64(opt.seconds)
		out["load.inflight_max"] = float64(r.inflight)
		ts.putMetrics(out, r, r.acks)
		out["ingest.drain_recs_per_s"] = float64(len(r.lags)*writeBatch) / float64(opt.seconds)
		out["ingest.backlog_recs_end"] = float64(e.c.Coord.IngestSeq() - e.c.Coord.IngestDrained())
		failed += r.lost
	case "ingest_drain":
		r := tracedIngest(ctx, e, ts, n)
		if len(r.acks) < 2*n {
			return nil, 0, 0, fmt.Errorf("benchmark: traced ingest stopped after %d of %d calls: %w", len(r.acks), 2*n, context.Cause(ctx))
		}
		attempted, failed = len(r.acks), r.lost
		for i, s := range r.acks {
			switch {
			case !s.ok:
				failed++
			case i < n:
				plain = append(plain, ms(s.lat))
			default:
				traced = append(traced, ms(s.lat))
			}
		}
		if !r.final {
			failed++
		}
		out["load.inflight_max"] = 1
		ts.putMetrics(out, r.run, r.acks[n:])
		span := r.acks[len(r.acks)-1].at - r.acks[n].at
		out["ingest.drain_recs_per_s"] = float64(r.drainedTo-r.drainedFrom) / span.Seconds()
		out["ingest.backlog_recs_end"] = float64(r.backlog)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	if p := percentile(plain, 50); p > 0 {
		out["load.trace_overhead_frac"] = (percentile(traced, 50) - p) / p
	}
	if m := mean(traced); m > 0 && e.def.loop == "closed" {
		out["load.achieved_qps"] = 1000 / m // one client, back to back
	}

	// Per-request numbers, from the spans and the Results.
	self := selfTimes(ts.tr.spans)
	for _, root := range ts.fanouts {
		ts.raw.add("frontend.self_us", us(self[root]))
	}
	for _, m := range []string{"frontend.query_us", "frontend.self_us", "frontend.queue_us", "frontend.dispatch_us",
		"frontend.merge_us", "frontend.cache_hit_us", "core.schedule_us", "wire.query_overhead_us", "node.query_us",
		"store.match_arc_us", "index.search_arc_us"} {
		out[m+"_p50"] = percentile(ts.raw[m], 50)
	}
	out["node.query_us_p99"] = percentile(ts.raw["node.query_us"], 99)
	out["frontend.subqueries_per_query"] = mean(ts.raw["frontend.subqueries"])
	out["frontend.hedged_legs_per_kquery"] = 1000 * mean(ts.raw["frontend.hedged_legs"])
	out["frontend.sub_failures"] = sampleOf(ts.raw["frontend.sub_failures"]).Sum()
	out["node.scanned_per_query"] = mean(ts.raw["node.scanned"])
	for _, m := range []string{"core.plan_subqueries", "proto.query_req_bytes", "proto.query_resp_bytes", "node.match_share"} {
		out[m] = mean(ts.raw[m])
	}
	out["proto.query_req_encode_ns"] = percentile(ts.raw["proto.query_req_encode_ns"], 50)
	out["proto.query_resp_decode_ns"] = percentile(ts.raw["proto.query_resp_decode_ns"], 50)

	cache := e.c.FE.CacheStats()
	if lookups := cache.Hits + cache.Misses - cache0.Hits - cache0.Misses; lookups > 0 {
		out["frontend.cache_hit_ratio"] = float64(cache.Hits-cache0.Hits) / float64(lookups)
	}
	out["frontend.cache_coalesced"] = float64(cache.Coalesced - cache0.Coalesced)
	out["frontend.cache_evictions"] = float64(cache.Evictions - cache0.Evictions)
	out["frontend.cache_invalidations"] = float64(cache.Invalidations - cache0.Invalidations)
	for _, n := range e.c.Nodes() {
		out["node.peak_concurrency"] = max(out["node.peak_concurrency"], float64(n.Stats().PeakConcurrency))
	}
	out["membership.load_corpus_s"] = e.loadCorpus.Seconds()

	if err := ts.probes(ctx, out); err != nil {
		return nil, 0, 0, err
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	if err := ts.tr.write(filepath.Join(opt.outDir, "trace-"+e.def.name+".json")); err != nil {
		return nil, 0, 0, err
	}
	return out, attempted, failed, nil
}

// putMetrics fills the write-path numbers the load loop measured.
func (ts *traceState) putMetrics(out map[string]float64, r run, acks []sample) {
	out["ingest.drain_lag_ms_p50"] = percentile(r.lags, 50)
	for _, a := range acks {
		if a.ok {
			ts.ackUS = append(ts.ackUS, us(a.lat))
		}
	}
}

// ingestRun extends run with what only the traced ingest loop knows.
type ingestRun struct {
	run
	drainedFrom, drainedTo uint64 // the watermark around the traced half
	backlog                uint64
}

// tracedIngest is ingest_drain for a fixed 2n calls, the second n with
// spans around IngestPut and around the sampled WaitIngestDrained.
func tracedIngest(ctx context.Context, e *env, ts *traceState, n int) ingestRun {
	var r ingestRun
	dw := &drainWriter{e: e, written: map[uint64]bool{}}
	syscall.Sync() // as newWindow does
	t0 := time.Now()
	for i := 0; i < 2*n && ctx.Err() == nil; i++ {
		if i == n {
			r.drainedFrom = e.c.Coord.IngestDrained()
		}
		seq, t, ack, err := dw.put(ctx)
		at := t.Sub(t0)
		r.acks = append(r.acks, sample{at: at, lat: ack, ok: err == nil})
		if err != nil || i < n {
			continue
		}
		ts.req++
		end := t.Add(ack)
		root := ts.tr.add("cluster.IngestPut", ts.req, 0, t, end, false)
		if i%visibleSample == 0 {
			err := e.c.WaitIngestDrained(ctx, seq)
			seen := time.Now()
			ts.tr.add("cluster.WaitIngestDrained", ts.req, root, end, seen, false)
			r.visibles = append(r.visibles, sample{at: at, lat: seen.Sub(t), ok: err == nil})
			r.lags = append(r.lags, ms(seen.Sub(end)))
		}
	}
	r.drainedTo = e.c.Coord.IngestDrained()
	r.backlog = e.c.Coord.IngestSeq() - e.c.Coord.IngestDrained()
	r.lost, r.final = e.drainAndCheck(ctx, dw)
	return r
}

// probes measures the layers the load loop does not reach one call at a
// time: the kernels, the codecs, the WAL and the set-up paths, each
// only on the workloads whose plane uses it.
func (ts *traceState) probes(ctx context.Context, out map[string]float64) error {
	e := ts.e
	var pings, syncs []float64
	for i := 0; i < 25; i++ {
		for _, cl := range ts.clients {
			t := time.Now()
			var resp proto.PingResp
			if err := cl.Call(ctx, proto.MNodePing, proto.PingReq{}, &resp); err != nil {
				return err
			}
			pings = append(pings, us(time.Since(t)))
		}
	}
	out["wire.ping_rtt_us_p50"] = percentile(pings, 50)
	for i := 0; i < 5; i++ {
		t := time.Now()
		if err := e.c.SyncView(); err != nil {
			return err
		}
		syncs = append(syncs, ms(time.Since(t)))
	}
	out["membership.view_sync_ms"] = percentile(syncs, 50)
	out["wire.conns_open"] = float64(establishedTo(ts.view))

	switch e.def.plane {
	case "pps":
		ts.ppsProbes(out)
	case "index":
		if err := ts.indexProbes(ctx, out); err != nil {
			return err
		}
	}
	if e.def.wal {
		return ts.ingestProbes(ctx, out)
	}
	return nil
}

func (ts *traceState) ppsProbes(out map[string]float64) {
	e := ts.e
	var docUS, queryUS []float64
	for i := 0; i < 50; i++ {
		t := time.Now()
		if _, err := e.c.Enc.EncryptDocument(e.docs[i%len(e.docs)]); err == nil {
			docUS = append(docUS, us(time.Since(t)))
		}
		t = time.Now()
		if _, err := e.c.Enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: e.pool[i%len(e.pool)].words[0]}); err == nil {
			queryUS = append(queryUS, us(time.Since(t)))
		}
	}
	out["pps.encrypt_doc_us"] = percentile(docUS, 50)
	out["pps.encrypt_query_us"] = percentile(queryUS, 50)

	// The kernel alone, over one node's records. Allocations are the
	// smallest delta of several passes: a background goroutine can add
	// to one pass, never subtract.
	recs := e.c.Nodes()[0].Store().InArc(0, 0)
	if len(recs) == 0 {
		return
	}
	var nsPerRec []float64
	allocs := ^uint64(0)
	ids := make([]uint64, 0, len(recs))
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		run := e.matcher.NewRun(e.pool[i%len(e.pool)].spec.Enc)
		runtime.ReadMemStats(&before)
		t := time.Now()
		ids = run.MatchBatch(recs, ids[:0])
		d := time.Since(t)
		runtime.ReadMemStats(&after)
		nsPerRec = append(nsPerRec, float64(d)/float64(len(recs)))
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
	out["pps.match_ns_per_rec"] = percentile(nsPerRec, 50)
	out["pps.match_allocs_per_rec"] = float64(allocs) / float64(len(recs))
}

func (ts *traceState) indexProbes(ctx context.Context, out map[string]float64) error {
	e := ts.e
	var hits, lookups int64
	for _, ix := range e.indexes {
		st := ix.Cache().Stats()
		hits, lookups = hits+st.Hits, lookups+st.Hits+st.Misses
		out["index.cache_evictions"] += float64(st.Evictions)
		out["index.cache_resident_bytes"] += float64(st.Bytes)
	}
	if lookups > 0 {
		out["index.cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	out["index.segment_bytes_per_doc"] = float64(e.segBytes) / float64(len(e.idocs))
	var cold []float64
	for i := 0; i < 5; i++ {
		p := e.pool[i%len(e.pool)].spec.Plain
		t := time.Now()
		ix := index.New(indexCacheMiB << 20)
		err := ix.AddFile(e.segPath)
		if err == nil {
			_, _, err = ix.SearchArc(ctx, index.Query{Terms: p.Terms, Mode: index.Mode(p.Mode), Limit: p.Limit}, 0, 0, true)
		}
		cold = append(cold, ms(time.Since(t)))
		ix.Close()
		if err != nil {
			return err
		}
	}
	out["index.open_cold_ms"] = percentile(cold, 50)
	return nil
}

// ingestProbes prices the write path's layers one at a time on scratch
// instances, then closes the cluster to replay the run's own log.
func (ts *traceState) ingestProbes(ctx context.Context, out map[string]float64) error {
	e := ts.e
	rng := rand.New(rand.NewSource(1))
	fresh := func(n int) []pps.Encoded {
		recs := make([]pps.Encoded, n)
		for i := range recs {
			like := e.sentinels
			if len(like) == 0 {
				like = e.recs
			}
			recs[i] = pps.Encoded{ID: rng.Uint64() | 1, BloomMetadata: like[i%len(like)].BloomMetadata}
		}
		return recs
	}
	batch := drainBatch
	if e.def.name == "mixed_zipf" {
		batch = writeBatch
	}

	scratch := filepath.Join(e.dir, "probe-wal")
	wal, err := ingest.Open(scratch, ingest.Options{})
	if err != nil {
		return err
	}
	var appendUS []float64
	const appends = 200
	for i := 0; i < appends; i++ {
		recs := fresh(batch)
		t := time.Now()
		if _, err := wal.Append(recs...); err != nil {
			wal.Close()
			return err
		}
		appendUS = append(appendUS, us(time.Since(t)))
	}
	if err := wal.Close(); err != nil {
		return err
	}
	out["ingest.wal_append_us_p50"] = percentile(appendUS, 50)
	bytes, _ := dirSize(scratch)
	out["ingest.wal_bytes_per_rec"] = float64(bytes) / float64(appends*batch)
	out["membership.ingest_overhead_us_p50"] = percentile(ts.ackUS, 50) - out["ingest.wal_append_us_p50"]

	const pushes, pushSize = 40, 256
	out["proto.put_req_bytes_per_rec"] = float64(len(proto.PutReq{Records: fresh(pushSize), Epoch: 1}.AppendWire(nil))) / pushSize
	scratchNode, err := node.New(node.Config{Params: e.c.Enc.ServerParams()})
	if err != nil {
		return err
	}
	scratchStore := store.New()
	var putTime, insertTime time.Duration
	for i := 0; i < pushes; i++ {
		recs := fresh(pushSize)
		t := time.Now()
		if _, err := scratchNode.Put(proto.PutReq{Records: recs}); err != nil {
			return err
		}
		putTime += time.Since(t)
		t = time.Now()
		scratchStore.Insert(recs...)
		insertTime += time.Since(t)
	}
	out["node.put_us_per_rec"] = us(putTime) / (pushes * pushSize)
	out["store.insert_us_per_rec"] = us(insertTime) / (pushes * pushSize)

	// The run's own log can only be reopened once its writer is gone.
	walDir := filepath.Join(e.dir, "wal")
	e.c.Close()
	e.c = nil
	segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
	out["ingest.segments_end"] = float64(len(segs))
	own, err := ingest.Open(walDir, ingest.Options{})
	if err != nil {
		return err
	}
	defer own.Close()
	replayed := 0
	t := time.Now()
	if err := own.Replay(0, func(uint64, pps.Encoded) bool { replayed++; return true }); err != nil {
		return err
	}
	if replayed > 0 {
		out["ingest.replay_ms_per_krec"] = ms(time.Since(t)) * 1000 / float64(replayed)
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil {
			total += info.Size()
		}
	}
	return total, nil
}

// establishedTo counts the kernel's ESTABLISHED TCP connections whose
// local end is one of the view's node listeners: the connections the
// cluster keeps open to its nodes, seen from outside the program.
func establishedTo(v proto.View) int {
	ports := map[int64]bool{}
	for _, ni := range v.Nodes {
		if _, p, err := net.SplitHostPort(ni.Addr); err == nil {
			if n, err := strconv.ParseInt(p, 10, 32); err == nil {
				ports[n] = true
			}
		}
	}
	f, err := os.Open("/proc/net/tcp")
	if err != nil {
		return 0
	}
	defer f.Close()
	count := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || fields[3] != "01" {
			continue
		}
		if i := strings.LastIndexByte(fields[1], ':'); i >= 0 {
			if p, err := strconv.ParseInt(fields[1][i+1:], 16, 32); err == nil && ports[p] {
				count++
			}
		}
	}
	return count
}
