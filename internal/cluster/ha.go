// HA harness: the replicated-control-plane variant of the cluster
// package. Where Cluster wires one in-process Coordinator straight to
// the frontends, HACluster runs a replica set over real loopback
// wire servers, joins nodes through the failover client (so joins land
// on whoever holds the lease), and keeps the frontend synchronised via
// frontend.Syncer over the same failover path — the complete networked
// control plane that docs/HA.md describes, shrunk onto one machine for
// the leader-kill chaos tests.
package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"roar/internal/coordclient"
	"roar/internal/frontend"
	"roar/internal/ingest"
	"roar/internal/membership"
	"roar/internal/node"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/wire"
)

// HAOptions configures a replicated-control-plane cluster.
type HAOptions struct {
	Replicas int // default 3
	Nodes    int
	Rings    int // default 1
	P        int

	// Lease/Heartbeat tune the election; chaos tests run them short.
	Lease     time.Duration
	Heartbeat time.Duration

	Frontend frontend.Config
	Health   membership.HealthConfig
	// IngestDir is the log directory the replicas share, as every
	// roar-member -peers names one -wal. Each replica opens its own
	// handle on winning an election and reads its own backend from it at
	// its first push; only the leader drains it, resuming from the
	// replicated watermark. Empty means a temporary directory that Close removes.
	IngestDir string
	// IngestBatch caps records per drain round (0 = consumer default).
	IngestBatch int
	// OnIntentCommitted is the ChangeP crash-point hook, installed on
	// every replica (leaders fire it; see membership.ReplicaConfig).
	OnIntentCommitted func(newP int)
	// Logf receives replica role transitions (tests pass t.Logf).
	Logf func(format string, args ...any)

	Seed int64
}

// HACluster is a running system with a replicated control plane.
type HACluster struct {
	Enc *pps.Encoder
	// Replicas holds every control-plane replica, index-aligned with
	// ReplicaAddrs. Killed replicas stay in the slice but are stopped.
	Replicas []*membership.Replica
	FE       *frontend.Frontend
	Syncer   *frontend.Syncer
	// MCl is the failover client the frontend and the harness share.
	MCl *coordclient.Client

	replicaSrvs []*wire.Server
	addrs       []string
	killed      []bool
	nodes       []*node.Node
	nodeSrvs    []*wire.Server
	tmpDir      string // the log directory Close removes, if StartHA made it
	rng         *rand.Rand
}

// StartHA builds and starts a replicated cluster: all replica
// listeners are bound first (each replica must know the full peer list
// up front), and nodes join through the failover client. Replicas share
// nothing but the log directory, exactly as separate roar-member -peers
// processes do.
func StartHA(opts HAOptions) (*HACluster, error) {
	if opts.Nodes <= 0 || opts.P <= 0 {
		return nil, fmt.Errorf("cluster: need Nodes and P")
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 3
	}
	if opts.Rings <= 0 {
		opts.Rings = 1
	}
	enc := pps.NewEncoder(pps.TestKey(1), SlimEncoderConfig())
	c := &HACluster{Enc: enc, rng: rand.New(rand.NewSource(opts.Seed))}

	dir, tmpDir, err := logDir(opts.IngestDir)
	if err != nil {
		return nil, err
	}
	c.tmpDir = tmpDir
	openWAL := func() (*ingest.WAL, error) { return ingest.Open(dir, ingest.Options{}) }
	lns := make([]net.Listener, opts.Replicas)
	c.addrs = make([]string, opts.Replicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, err
		}
		lns[i] = ln
		c.addrs[i] = ln.Addr().String()
	}
	c.killed = make([]bool, opts.Replicas)
	for i := range lns {
		rep, err := membership.NewReplica(membership.ReplicaConfig{
			Self:              c.addrs[i],
			Peers:             c.addrs,
			Lease:             opts.Lease,
			Heartbeat:         opts.Heartbeat,
			Coordinator:       membership.Config{Rings: opts.Rings, P: opts.P, Health: opts.Health},
			OpenWAL:           openWAL,
			Ingest:            membership.IngestConfig{Batch: opts.IngestBatch, Logf: opts.Logf},
			Logf:              opts.Logf,
			OnIntentCommitted: opts.OnIntentCommitted,
		})
		if err != nil {
			lns[i].Close()
			c.Close()
			return nil, err
		}
		d := wire.NewDispatcher()
		rep.RegisterHandlers(d)
		membership.RegisterHandlers(d, rep.LeaderCoord)
		c.Replicas = append(c.Replicas, rep)
		c.replicaSrvs = append(c.replicaSrvs, wire.ServeListener(lns[i], d.Handle))
	}
	for _, rep := range c.Replicas {
		rep.Start()
	}
	if _, err := c.WaitLeader(10 * time.Second); err != nil {
		c.Close()
		return nil, err
	}

	mcl, err := coordclient.New(c.addrs, coordclient.Config{})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.MCl = mcl

	for i := 0; i < opts.Nodes; i++ {
		n, err := node.New(node.Config{Params: enc.ServerParams()})
		if err != nil {
			c.Close()
			return nil, err
		}
		srv, err := n.Serve("127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.nodeSrvs = append(c.nodeSrvs, srv)
		var jr proto.JoinResp
		if err := mcl.Call(context.Background(), proto.MMemberJoin,
			proto.JoinReq{Addr: srv.Addr(), SpeedHint: 1}, &jr); err != nil {
			c.Close()
			return nil, err
		}
	}

	fe := frontend.New(opts.Frontend)
	c.FE = fe
	c.Syncer = frontend.NewSyncer(fe, mcl, frontend.SyncConfig{Logf: opts.Logf})
	if err := c.Syncer.PullViewOnce(context.Background()); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Leader returns the current unique leader, or nil when there is none
// (an election in progress, or a split not yet resolved).
func (c *HACluster) Leader() *membership.Replica {
	var leader *membership.Replica
	for i, r := range c.Replicas {
		if !c.killed[i] && r.IsLeader() {
			if leader != nil {
				return nil
			}
			leader = r
		}
	}
	return leader
}

// WaitLeader blocks until exactly one live replica leads.
func (c *HACluster) WaitLeader(timeout time.Duration) (*membership.Replica, error) {
	deadline := time.Now().Add(timeout) //lint:allow wallclock — harness waits on real elections
	for {
		if l := c.Leader(); l != nil {
			return l, nil
		}
		if time.Now().After(deadline) { //lint:allow wallclock — harness waits on real elections
			return nil, fmt.Errorf("cluster: no leader within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond) //lint:allow wallclock — harness waits on real elections
	}
}

// KillReplica crashes replica i: the replica stops (its coordinator
// and peer clients close) and its wire server goes down, so peers and
// clients see connection failures — the closest in-process stand-in
// for a killed coordinator process.
func (c *HACluster) KillReplica(i int) {
	if i < 0 || i >= len(c.Replicas) || c.killed[i] {
		return
	}
	c.killed[i] = true
	c.Replicas[i].Stop()
	c.replicaSrvs[i].Close()
}

// ReplicaIndex maps a replica to its slot, -1 when unknown.
func (c *HACluster) ReplicaIndex(r *membership.Replica) int {
	for i, cand := range c.Replicas {
		if cand == r {
			return i
		}
	}
	return -1
}

// LoadEncoded loads pre-encrypted records as member.load does, through
// the current leader's log, and returns once they are drained; both
// steps retry across a failover.
func (c *HACluster) LoadEncoded(recs []pps.Encoded) error {
	ctx := context.Background()
	resp, err := c.IngestPut(ctx, recs...)
	if err != nil {
		return err
	}
	return c.WaitIngestDrained(ctx, resp.Seq)
}

// IngestPut appends records through the current leader's log, failing
// over with the shared coordclient — a mid-append failover surfaces as
// a retriable error, which this helper absorbs (record-ID dedup makes
// re-appending safe).
func (c *HACluster) IngestPut(ctx context.Context, recs ...pps.Encoded) (proto.IngestResp, error) {
	var resp proto.IngestResp
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		if resp, err = c.Syncer.Ingest(ctx, recs); err == nil {
			return resp, nil
		}
		select {
		case <-ctx.Done():
			return proto.IngestResp{}, ctx.Err()
		case <-time.After(20 * time.Millisecond): //lint:allow wallclock — harness retries across real elections
		}
	}
	return proto.IngestResp{}, fmt.Errorf("cluster: ingest append never landed: %w", err)
}

// WaitIngestDrained polls the leader's delivery watermark until it
// reaches seq or ctx ends, surviving failovers in between.
func (c *HACluster) WaitIngestDrained(ctx context.Context, seq uint64) error {
	for {
		if l := c.Leader(); l != nil {
			if coord, err := l.LeaderCoord(); err == nil && coord.IngestDrained() >= seq {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: ingest drain did not reach %d: %w", seq, ctx.Err())
		case <-time.After(10 * time.Millisecond): //lint:allow wallclock — harness polls real drain progress
		}
	}
}

// Nodes returns the in-process node handles.
func (c *HACluster) Nodes() []*node.Node { return c.nodes }

// Close tears everything down.
func (c *HACluster) Close() {
	if c.Syncer != nil {
		c.Syncer.Stop()
	}
	if c.FE != nil {
		c.FE.Close()
	}
	if c.MCl != nil {
		c.MCl.Close()
	}
	for i := range c.Replicas {
		if !c.killed[i] {
			c.killed[i] = true
			c.Replicas[i].Stop()
			c.replicaSrvs[i].Close()
		}
	}
	for _, s := range c.nodeSrvs {
		if s != nil {
			s.Close()
		}
	}
	os.RemoveAll(c.tmpDir)
}
