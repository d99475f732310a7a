// Command roar-member runs the membership server (§4.9): it owns the
// ring topology, loads the corpus onto joining nodes, drives p changes,
// and publishes views to frontends. Every record it takes, by
// member.load or member.ingest, goes through its write-ahead log (-wal),
// and the coordinator reads the corpus from that log whenever it pushes
// a node its stored set, after a restart or an election too.
//
// Standalone (single coordinator, the original deployment; without -wal
// the log lives in a temporary directory removed at exit):
//
//	roar-member -listen 127.0.0.1:7000 -p 4 -rings 1
//
// Replicated (HA control plane; run one process per peer, each naming
// the full peer list and the one log directory they share — see
// docs/HA.md):
//
//	roar-member -listen 127.0.0.1:7001 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 -wal /shared/wal
//
// Both are built by membership.Serve, which the cluster harness starts
// too, and serve the same member.* table (membership.RegisterHandlers).
// -peers only picks the coordinator behind the table: standalone, it is
// the one coordinator, which commits nothing; replicated, it is the
// current leader's, and followers answer with a "leader=<addr>"
// redirect.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"roar/internal/debughttp"
	"roar/internal/membership"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:7000", "address to serve on")
		p       = flag.Int("p", 4, "initial partitioning level")
		rings   = flag.Int("rings", 1, "number of rings")
		qThresh = flag.Float64("quarantine-threshold", 0, "failure-evidence score that quarantines a node (0 = default 3)")

		walDir = flag.String("wal", "", "write-ahead log directory every record enters through; replicas must share it (empty = a temporary directory, standalone only)")

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
		dbgAddr    = flag.String("debug-addr", "", "serve /debug/pprof/ and /debug/vars on this address (empty = off)")
	)
	flag.Parse()
	dbg, err := debughttp.Serve(*dbgAddr)
	if err != nil {
		fatal(err)
	}
	defer dbg.Close()
	if dbg != nil {
		fmt.Printf("debug endpoints on http://%s/debug/\n", dbg.Addr())
	}

	cfg := membership.ServerConfig{
		Coordinator: membership.Config{
			P: *p, Rings: *rings,
			Health: membership.HealthConfig{QuarantineThreshold: *qThresh},
		},
		WALDir:    *walDir,
		Ingest:    membership.IngestConfig{Logf: log.Printf},
		Self:      *self,
		Lease:     *lease,
		Heartbeat: *heartbeat,
		Logf:      log.Printf,
	}
	for _, peer := range strings.Split(*peers, ",") {
		if peer = strings.TrimSpace(peer); peer != "" {
			cfg.Peers = append(cfg.Peers, peer)
		}
	}
	if cfg.Self == "" {
		cfg.Self = *listen
	}
	if cfg.WALDir == "" {
		// Replicas share one log, so only a standalone coordinator may
		// keep its own in a temporary directory.
		if len(cfg.Peers) > 0 {
			fatal(fmt.Errorf("-peers needs -wal: a new leader reads the corpus from the log the replicas share"))
		}
		dir, err := os.MkdirTemp("", "roar-member-wal-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		cfg.WALDir = dir
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	ms, err := membership.Serve(ln, cfg)
	if err != nil {
		fatal(err)
	}
	defer ms.Close()
	banner := fmt.Sprintf("(p=%d rings=%d)", *p, *rings)
	if ms.Replica != nil {
		banner = fmt.Sprintf("replica %s", ms.Replica.Self())
	}
	if *autoscale || *asDryRun {
		as := ms.NewAutoscaler(membership.AutoscaleConfig{
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
		})
		as.Start(context.Background())
		defer as.Stop()
		mode, iv := "active", *asInterval
		if *asDryRun {
			mode = "dry-run"
		}
		if iv <= 0 {
			iv = 5 * time.Second
		}
		log.Printf("autoscale controller started (%s, interval %v)", mode, iv)
	}
	fmt.Printf("roar-member serving on %s %s\n", ms.Addr(), banner)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "roar-member:", err)
	os.Exit(1)
}
