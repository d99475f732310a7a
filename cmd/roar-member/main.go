// Command roar-member runs the membership server (§4.9): it owns the
// ring topology, loads the corpus onto joining nodes, drives p changes,
// and publishes views to frontends.
//
// Standalone (single coordinator, the original deployment):
//
//	roar-member -listen 127.0.0.1:7000 -p 4 -rings 1
//
// Replicated (HA control plane; run one process per peer, each naming
// the full peer list — see docs/HA.md):
//
//	roar-member -listen 127.0.0.1:7001 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"roar/internal/ingest"
	"roar/internal/membership"
	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/store"
	"roar/internal/wire"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7000", "address to serve on")
		p        = flag.Int("p", 4, "initial partitioning level")
		rings    = flag.Int("rings", 1, "number of rings")
		qThresh  = flag.Float64("quarantine-threshold", 0, "failure-evidence score that quarantines a node (0 = default 3)")
		qRecover = flag.Float64("quarantine-recover", 0, "score at which a quarantined node is re-admitted (default 0)")
		qMaxFrac = flag.Float64("quarantine-max-fraction", 0, "refuse to quarantine beyond this fraction of nodes (0 = default 0.5)")

		walDir = flag.String("wal", "", "durable ingest WAL directory — enables member.ingest (async writes); replicas must share it")

		peers     = flag.String("peers", "", "comma-separated replica addresses (including this one) — enables the replicated control plane")
		self      = flag.String("self", "", "this replica's advertised address (default: -listen)")
		lease     = flag.Duration("lease", 0, "leadership lease duration (0 = default 2s)")
		heartbeat = flag.Duration("heartbeat", 0, "leader replication cadence (0 = lease/4)")

		autoscale  = flag.Bool("autoscale", false, "run the elasticity controller (auto ChangeP / ring power / decommission)")
		asDryRun   = flag.Bool("autoscale-dry-run", false, "log autoscale decisions without acting on them")
		asInterval = flag.Duration("autoscale-interval", 0, "controller evaluation cadence (0 = default 5s)")
		asHigh     = flag.Float64("autoscale-high", 0, "fleet pressure that triggers scale-up (0 = default 1.0)")
		asLow      = flag.Float64("autoscale-low", 0, "fleet pressure that triggers scale-down (0 = default 0.25)")
		asSustain  = flag.Int("autoscale-sustain", 0, "consecutive ticks over/under threshold before acting (0 = default 3)")
		asCooldown = flag.Duration("autoscale-cooldown", 0, "minimum time between reconfigurations (0 = default 1m)")
		asMinP     = flag.Int("autoscale-min-p", 0, "floor for emergency p-down steps (0 = default 1)")
		asCostGate = flag.Float64("autoscale-cost-gate", 0, "refuse a p step moving more than this many corpus copies (0 = default 1.0)")
		qDeadline  = flag.Duration("quarantine-deadline", 0, "auto-decommission a node quarantined longer than this (0 = off)")
	)
	flag.Parse()

	coordCfg := membership.Config{
		P: *p, Rings: *rings,
		Health: membership.HealthConfig{
			QuarantineThreshold:   *qThresh,
			RecoverThreshold:      *qRecover,
			MaxQuarantineFraction: *qMaxFrac,
		},
	}
	// Replica sets open the shared WAL directory lazily on winning an
	// election (ReplicaConfig.OpenWAL below): opening here would race
	// the peer processes on segment creation, and a follower's handle
	// would go stale the moment the leader appends. Standalone has no
	// peers to race, so it opens eagerly.
	if *walDir != "" && *peers == "" {
		wal, err := ingest.Open(*walDir, ingest.Options{})
		if err != nil {
			fatal(err)
		}
		defer wal.Close()
		coordCfg.WAL = wal
	}
	asCfg := membership.AutoscaleConfig{
		DryRun:             *asDryRun,
		Interval:           *asInterval,
		HighPressure:       *asHigh,
		LowPressure:        *asLow,
		SustainTicks:       *asSustain,
		Cooldown:           *asCooldown,
		MinP:               *asMinP,
		CostGateFraction:   *asCostGate,
		QuarantineDeadline: *qDeadline,
		Logf:               log.Printf,
	}
	logAutoscale := func() {
		mode := "active"
		if *asDryRun {
			mode = "dry-run"
		}
		iv := *asInterval
		if iv <= 0 {
			iv = 5 * time.Second
		}
		log.Printf("autoscale controller started (%s, interval %v)", mode, iv)
	}

	if *peers != "" {
		runReplica(*listen, *self, *peers, *lease, *heartbeat, *walDir, coordCfg, asCfg, *autoscale || *asDryRun, logAutoscale)
		return
	}

	coord, err := membership.New(coordCfg)
	if err != nil {
		fatal(err)
	}
	defer coord.Close()
	if coordCfg.WAL != nil {
		// Standalone coordinator: recover the backend from the WAL and
		// start the drain immediately (no election to wait for).
		if err := coord.StartIngest(membership.IngestConfig{Logf: log.Printf}); err != nil {
			fatal(err)
		}
	}

	if *autoscale || *asDryRun {
		as := coord.NewAutoscaler(asCfg)
		as.Start(context.Background())
		defer as.Stop()
		logAutoscale()
	}

	d := wire.NewDispatcher()
	d.Register(proto.MMemberJoin, func(ctx context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.JoinReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return coord.Join(ctx, req.Addr, req.SpeedHint)
	})
	d.Register(proto.MMemberLeave, func(ctx context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.LeaveReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return struct{}{}, coord.Leave(ctx, ring.NodeID(req.ID))
	})
	d.Register(proto.MMemberView, func(_ context.Context, _ string, _ wire.Body) (interface{}, error) {
		return coord.View(), nil
	})
	d.Register(proto.MMemberSetP, func(ctx context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.SetPReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return struct{}{}, coord.ChangeP(ctx, req.P)
	})
	d.Register(proto.MMemberLoad, func(ctx context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.LoadReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		recs, err := store.LoadFile(ctx, req.Path)
		if err != nil {
			return nil, err
		}
		if err := coord.LoadCorpus(ctx, recs); err != nil {
			return nil, err
		}
		return proto.LoadResp{Records: len(recs)}, nil
	})
	d.Register(proto.MMemberHealth, func(_ context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.HealthReport
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return coord.ReportHealth(req), nil
	})
	d.Register(proto.MMemberIngest, func(ctx context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.IngestReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		seq, err := coord.IngestAppend(ctx, req.Records)
		if err != nil {
			return nil, err
		}
		return proto.IngestResp{Seq: seq, Drained: coord.IngestDrained()}, nil
	})

	srv, err := wire.Serve(*listen, d.Handle)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("roar-member serving on %s (p=%d rings=%d)\n", srv.Addr(), *p, *rings)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	srv.Close()
}

// runReplica serves one member of the replicated control plane.
func runReplica(listen, self, peerList string, lease, heartbeat time.Duration, walDir string,
	coordCfg membership.Config, asCfg membership.AutoscaleConfig, runAutoscale bool, logAutoscale func()) {
	if self == "" {
		self = listen
	}
	var peers []string
	for _, p := range strings.Split(peerList, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	var openWAL func() (*ingest.WAL, error)
	if walDir != "" {
		openWAL = func() (*ingest.WAL, error) { return ingest.Open(walDir, ingest.Options{}) }
	}
	rep, err := membership.NewReplica(membership.ReplicaConfig{
		Self:        self,
		Peers:       peers,
		Lease:       lease,
		Heartbeat:   heartbeat,
		Coordinator: coordCfg,
		Ingest:      membership.IngestConfig{Logf: log.Printf},
		OpenWAL:     openWAL,
		Logf:        log.Printf,
	})
	if err != nil {
		fatal(err)
	}
	defer rep.Stop()

	d := wire.NewDispatcher()
	rep.RegisterHandlers(d)
	d.Register(proto.MMemberLoad, func(ctx context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.LoadReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		recs, err := store.LoadFile(ctx, req.Path)
		if err != nil {
			return nil, err
		}
		if err := rep.LoadCorpus(ctx, recs); err != nil {
			return nil, err
		}
		return proto.LoadResp{Records: len(recs)}, nil
	})

	srv, err := wire.Serve(listen, d.Handle)
	if err != nil {
		fatal(err)
	}
	rep.Start()
	if runAutoscale {
		as := rep.NewAutoscaler(asCfg)
		as.Start(context.Background())
		defer as.Stop()
		logAutoscale()
	}
	fmt.Printf("roar-member replica %s serving on %s (%d peers)\n", self, srv.Addr(), len(peers))
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	srv.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "roar-member:", err)
	os.Exit(1)
}
