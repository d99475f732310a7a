// Command roar-frontend runs a ROAR front-end server: it polls the
// membership server for cluster views, schedules client queries with
// Algorithm 1, and reports node speed observations and failures back to
// the membership server (§4.8, §4.9).
//
// -member accepts either one coordinator or a comma-separated replica
// list; with a list the frontend sticks to the current leader and fails
// its view pulls and health pushes over on coordinator loss.
//
//	roar-frontend -listen 127.0.0.1:8000 -member 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"roar/internal/coordclient"
	"roar/internal/frontend"
	"roar/internal/proto"
	"roar/internal/wire"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:8000", "address to serve on")
		member   = flag.String("member", "127.0.0.1:7000", "membership server address(es), comma-separated for a replicated control plane")
		pq       = flag.Int("pq", 0, "query partitioning level override (0 = view p)")
		adjust   = flag.Bool("adjust", true, "enable range adjustment (§4.8.2)")
		splits   = flag.Int("splits", 0, "max slow-sub-query splits per query")
		poll     = flag.Duration("poll", time.Second, "view poll interval")
		pool     = flag.Int("pool", 2, "wire connections per node")
		inflight = flag.Int("max-inflight", 0, "max concurrently executing queries (0 = unlimited)")
		queueTO  = flag.Duration("queue-timeout", 0, "admission queue wait limit (0 = caller context)")
		nodeOut  = flag.Int("node-outstanding", 0, "max in-flight sub-queries per node (per-node backpressure, 0 = unlimited)")
		hedge    = flag.Duration("hedge-delay", 0, "re-dispatch a slow sub-query onto replicas after this delay (0 = off)")
		hedgeQ   = flag.Float64("hedge-quantile", 0, "derive the hedge delay from this quantile of observed sub-query latency, e.g. 0.95 (0 = fixed -hedge-delay)")
		probe    = flag.Duration("probe-interval", 0, "suspected-node recovery probe cadence (0 = 500ms default, <0 = off)")
		hedgeB   = flag.Float64("hedge-budget", 0, "hedged legs per primary sub-query, the Kraus-style rate limit (0 = default 0.05, <0 = unlimited)")
		hedgeBB  = flag.Float64("hedge-burst", 0, "hedge token-bucket capacity (0 = default 4)")
		hedgePQ  = flag.Int("hedge-per-query", 0, "max hedged legs per query (0 = unlimited)")
		shedHW   = flag.Int("shed-highwater", 0, "mean reported node queue depth that triggers overload shedding (0 = off)")
		healthIv = flag.Duration("health-interval", time.Second, "health report push cadence")
		cacheB   = flag.Int64("cache-budget", 0, "result cache memory budget in bytes (0 = cache off)")
		tenRate  = flag.Float64("tenant-rate", 0, "per-tenant admission tokens per second (0 = quotas off, counters only)")
		tenBurst = flag.Float64("tenant-burst", 0, "per-tenant admission token bucket capacity (0 = max(rate, 8))")
	)
	flag.Parse()

	fe := frontend.New(frontend.Config{
		Name: *listen,
		PQ:   *pq, RangeAdjust: *adjust, MaxSplits: *splits,
		PoolSize: *pool, MaxInFlight: *inflight, QueueTimeout: *queueTO,
		NodeMaxOutstanding: *nodeOut,
		HedgeDelay:         *hedge, HedgeQuantile: *hedgeQ,
		ProbeInterval:       *probe,
		HedgeBudgetFraction: *hedgeB, HedgeBudgetBurst: *hedgeBB,
		HedgeMaxPerQuery: *hedgePQ, ShedHighWater: *shedHW,
		CacheBudget: *cacheB,
		TenantRate:  *tenRate, TenantBurst: *tenBurst,
	})
	defer fe.Close()

	var peers []string
	for _, p := range strings.Split(*member, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	mcl, err := coordclient.New(peers, coordclient.Config{})
	if err != nil {
		fatal(err)
	}
	defer mcl.Close()

	sy := frontend.NewSyncer(fe, mcl, frontend.SyncConfig{
		Poll:           *poll,
		HealthInterval: *healthIv,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "roar-frontend: "+format+"\n", args...)
		},
	})
	defer sy.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := sy.WaitFirstView(ctx, 60); err != nil {
		fatal(fmt.Errorf("no usable view from %s: %w", *member, err))
	}
	sy.Start(ctx)

	d := wire.NewDispatcher()
	d.Register(proto.MFEQuery, func(ctx context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.FEQueryReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		// Plain selects the nodes' roaring-bitmap index data plane; the
		// scheduling/hedging/merge pipeline is shared with encrypted
		// queries (see frontend.QuerySpec).
		res, err := fe.Query(ctx, frontend.QuerySpec{
			Enc: req.Q, Plain: req.Plain,
			Tenant:       req.Tenant,
			Priority:     frontend.Priority(req.Priority),
			CacheControl: req.CacheControl,
		})
		if err != nil {
			return nil, err
		}
		return proto.FEQueryResp{
			IDs: res.IDs, DelayNanos: int64(res.Delay), QueueNanos: int64(res.Queue),
			SubQueries: res.SubQueries, Failures: res.Failures, Hedges: res.Hedges,
			Source: res.Source,
		}, nil
	})
	d.Register(proto.MFEPut, func(ctx context.Context, _ string, body wire.Body) (interface{}, error) {
		// Async put: forward the batch to the coordinator's durable
		// ingest WAL. The reply means the records are fsynced there;
		// delivery to the owning nodes happens behind the WAL.
		var req proto.FEPutReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		resp, err := sy.Ingest(ctx, req.Records)
		if err != nil {
			return nil, err
		}
		return proto.FEPutResp{Seq: resp.Seq, Drained: resp.Drained}, nil
	})
	srv, err := wire.Serve(*listen, d.Handle)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("roar-frontend serving on %s (member %s)\n", srv.Addr(), *member)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	srv.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "roar-frontend:", err)
	os.Exit(1)
}
