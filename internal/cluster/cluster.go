// Package cluster is the in-process test harness for the full ROAR
// system: N data nodes served over loopback TCP, a membership control
// plane, and frontends — the same roles as the paper's Hen/EC2
// deployments (§7.1), shrunk onto one machine. It wires them the way
// the cmd/ binaries do: the control plane is the process roar-member
// runs (membership.Serve), standalone or a replica set sharing one log
// directory; nodes join over member.join like roar-node -member; and
// every frontend is kept current by its own frontend.Syncer, which
// pulls views, pushes health and reads drained records over the wire
// like roar-frontend. Only writes skip the wire: IngestPut and
// LoadEncoded append on the leading coordinator in process. All
// experiment code and the integration tests run through this package
// so they exercise the complete networked path: scheduling, RPC,
// matching, reconfiguration and failure handling.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"roar/internal/clock"
	"roar/internal/coordclient"
	"roar/internal/frontend"
	"roar/internal/membership"
	"roar/internal/node"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/wire"
	"roar/internal/workload"
)

// Options configures a cluster.
type Options struct {
	Nodes int
	Rings int // default 1
	P     int // initial partitioning level

	// Replicas is the number of control-plane processes: at most 1 runs
	// one standalone coordinator, as roar-member does without -peers; 2
	// or more run a replica set sharing IngestDir, as roar-member -peers.
	Replicas int
	// Lease/Heartbeat tune a replica set's election (zero values use
	// the membership defaults); chaos tests run them short.
	Lease     time.Duration
	Heartbeat time.Duration

	// MatchThreads per node (default 1).
	MatchThreads int
	// FixedQueryCost is a constant per-sub-query node overhead (§2's
	// fixed costs; used by the throughput-vs-p experiments).
	FixedQueryCost time.Duration
	// NodeSpeeds, when set, throttles node i to NodeSpeeds[i] objects
	// per second — the Table 7.1 hardware emulation. nil = unthrottled.
	NodeSpeeds []float64
	// SpeedHints passed to the membership server at join (defaults to
	// NodeSpeeds scaled, else 1).
	SpeedHints []float64

	Frontend frontend.Config
	// Health tunes the coordinator's failure/overload control loop
	// (quarantine thresholds); zero values use the defaults.
	Health membership.HealthConfig
	// Autoscale, when set, attaches an elasticity controller to the
	// first control-plane process (not started: tests drive it with
	// StepAutoscale for determinism; call Cluster.AS.Start for the
	// background loop).
	Autoscale *membership.AutoscaleConfig
	// Encoder overrides the PPS encoding (nil = SlimEncoderConfig; a
	// pointer to the zero pps.EncoderConfig is the paper-sized encoder,
	// 500B of metadata).
	Encoder *pps.EncoderConfig

	// IngestDir is the control plane's WAL directory, through which
	// every record reaches the nodes (LoadEncoded and IngestPut alike);
	// a replica set shares it. Empty means a temporary directory that
	// Close removes.
	IngestDir string
	// IngestBatch caps records per drain round (0 = consumer default).
	IngestBatch int
	// OnIntentCommitted is the ChangeP crash-point hook, installed on
	// every replica (leaders fire it; see membership.ReplicaConfig).
	OnIntentCommitted func(newP int)
	// Logf receives replica role transitions, drain failures and
	// rejected view refreshes (tests pass t.Logf).
	Logf func(format string, args ...any)

	Seed int64
}

// Cluster is a running system.
type Cluster struct {
	Enc *pps.Encoder
	// Coord is the standalone coordinator; nil under a replica set,
	// where Leader gives the current one.
	Coord *membership.Coordinator
	FE    *frontend.Frontend
	// AS is the attached elasticity controller (nil unless
	// Options.Autoscale was set).
	AS *membership.Autoscaler
	// MCl is the failover client over every control-plane address: the
	// nodes joined through it, and every frontend's Syncer calls it.
	MCl *coordclient.Client

	members []*membership.Server
	fes     []*frontend.Frontend // FE first
	syncers []*frontend.Syncer   // index-aligned with fes
	nodes   []*node.Node
	servers []*wire.Server
	ids     []ring.NodeID
	tmpDir  string // the WAL directory Close removes, if the harness made it
	logf    func(format string, args ...any)
	rng     *rand.Rand
}

// SlimEncoderConfig is a small encoding that keeps harness corpora cheap
// to build while exercising every code path.
func SlimEncoderConfig() pps.EncoderConfig {
	return pps.EncoderConfig{
		MaxKeywords: 4,
		MaxPathDir:  4,
		SizePoints:  pps.LinearPoints(0, 1e9, 16),
		DateDays:    90,
		DateSpan:    40,
		RankBuckets: []int{1, 5},
	}
}

// Start builds and starts a cluster: the control-plane processes, then
// the nodes, each joining over member.join, then the first frontend.
// Replica listeners are all bound first, since each replica must know
// the full peer list up front.
func Start(opts Options) (*Cluster, error) { return start(opts, nil) }

// start is Start with the control plane on clk (nil means clock.Real).
func start(opts Options, clk clock.Clock) (*Cluster, error) {
	if opts.Nodes <= 0 || opts.P <= 0 {
		return nil, fmt.Errorf("cluster: need Nodes and P")
	}
	if opts.Rings <= 0 {
		opts.Rings = 1
	}
	encCfg := SlimEncoderConfig()
	if opts.Encoder != nil {
		encCfg = *opts.Encoder
	}
	// The key is fixed: experiments vary topology and load, never key
	// material, and a shared key lets callers reuse encrypted corpora.
	enc := pps.NewEncoder(pps.TestKey(1), encCfg)

	dir, tmpDir, err := logDir(opts.IngestDir)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Enc: enc, tmpDir: tmpDir, logf: opts.Logf, rng: rand.New(rand.NewSource(opts.Seed))}
	if err := c.startControlPlane(opts, dir, clk); err != nil {
		c.Close()
		return nil, err
	}

	for i := 0; i < opts.Nodes; i++ {
		ncfg := node.Config{
			Params:         enc.ServerParams(),
			MatchThreads:   opts.MatchThreads,
			FixedQueryCost: opts.FixedQueryCost,
		}
		if opts.NodeSpeeds != nil {
			ncfg.ObjectsPerSec = opts.NodeSpeeds[i]
		}
		n, err := node.New(ncfg)
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
		c.servers = append(c.servers, srv)
		hint := 1.0
		if opts.SpeedHints != nil {
			hint = opts.SpeedHints[i]
		} else if opts.NodeSpeeds != nil {
			hint = opts.NodeSpeeds[i]
		}
		var jr proto.JoinResp
		if err := c.MCl.Call(context.Background(), proto.MMemberJoin,
			proto.JoinReq{Addr: srv.Addr(), SpeedHint: hint}, &jr); err != nil {
			c.Close()
			return nil, err
		}
		c.ids = append(c.ids, ring.NodeID(jr.ID))
	}

	if opts.Autoscale != nil {
		c.AS = c.members[0].NewAutoscaler(*opts.Autoscale)
	}
	if c.FE, err = c.AddFrontend(opts.Frontend); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// startControlPlane serves opts.Replicas control-plane processes (one
// when fewer) on clk on loopback, waits for a replica set to elect a
// leader, and opens the failover client over them.
func (c *Cluster) startControlPlane(opts Options, dir string, clk clock.Clock) error {
	lns := make([]net.Listener, max(opts.Replicas, 1))
	addrs := make([]string, len(lns))
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	cfg := membership.ServerConfig{
		Coordinator:       membership.Config{Rings: opts.Rings, P: opts.P, Health: opts.Health, Clock: clk},
		WALDir:            dir,
		Ingest:            membership.IngestConfig{Batch: opts.IngestBatch, Logf: opts.Logf},
		Lease:             opts.Lease,
		Heartbeat:         opts.Heartbeat,
		OnIntentCommitted: opts.OnIntentCommitted,
		Logf:              opts.Logf,
	}
	if len(lns) > 1 {
		cfg.Peers = addrs
	}
	for i, ln := range lns {
		m, err := membership.Serve(ln, cfg)
		if err != nil {
			for _, l := range lns[i+1:] {
				l.Close()
			}
			return err
		}
		c.members = append(c.members, m)
	}
	c.Coord = c.members[0].Coord
	if c.Coord == nil {
		if _, err := c.WaitLeader(10 * time.Second); err != nil {
			return err
		}
	}
	mcl, err := coordclient.New(addrs, coordclient.Config{})
	if err != nil {
		return err
	}
	c.MCl = mcl
	return nil
}

// logDir returns dir, or when it is empty a fresh temporary directory,
// which it also returns as tmp for the harness's Close to remove.
func logDir(dir string) (use, tmp string, err error) {
	if dir != "" {
		return dir, "", nil
	}
	tmp, err = os.MkdirTemp("", "roar-wal-")
	return tmp, tmp, err
}

// failoverTries bounds how often a write helper asks a replica set for
// a leader that takes the call, 20 ms apart: ~10 s, several elections.
const failoverTries = 500

// onLeader runs fn on the coordinator that leads: the standalone one,
// once, or under a replica set the current leader's, retrying across a
// failover (record-ID dedup makes re-appending safe) until fn succeeds,
// ctx ends or failoverTries run out.
func (c *Cluster) onLeader(ctx context.Context, fn func(*membership.Coordinator) error) error {
	if c.Coord != nil {
		return fn(c.Coord)
	}
	for try := 1; ; try++ {
		err := errors.New("no leader")
		if l := c.Leader(); l != nil {
			var coord *membership.Coordinator
			if coord, err = l.LeaderCoord(); err == nil {
				if err = fn(coord); err == nil {
					return nil
				}
			}
		}
		if try == failoverTries {
			return fmt.Errorf("cluster: no leader took the call in %d tries: %w", try, err)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: %w (last: %v)", ctx.Err(), err)
		case <-time.After(20 * time.Millisecond): //lint:allow wallclock — harness retries across real elections
		}
	}
}

// IngestPut appends records to the leading coordinator's WAL, in
// process, and returns the sequence of the last one; delivery to the
// owning nodes is asynchronous — WaitIngestDrained blocks on it.
func (c *Cluster) IngestPut(ctx context.Context, recs ...pps.Encoded) (uint64, error) {
	var seq uint64
	err := c.onLeader(ctx, func(coord *membership.Coordinator) (err error) {
		seq, err = coord.IngestAppend(ctx, recs)
		return err
	})
	return seq, err
}

// WaitIngestDrained blocks until every record with sequence <= seq has
// been delivered to all of its owners, or ctx ends.
func (c *Cluster) WaitIngestDrained(ctx context.Context, seq uint64) error {
	return c.onLeader(ctx, func(coord *membership.Coordinator) error {
		return coord.WaitIngestDrained(ctx, seq)
	})
}

// StepAutoscale runs one elasticity-controller evaluation and, when it
// actually reconfigured something, has every frontend poll the fresh
// view. Dry-run decisions, refusals ("hold"), and failed executions
// mutate nothing, so they trigger no poll.
func (c *Cluster) StepAutoscale(ctx context.Context) ([]membership.AutoscaleDecision, error) {
	if c.AS == nil {
		return nil, fmt.Errorf("cluster: no autoscaler attached (Options.Autoscale)")
	}
	ds := c.AS.Step(ctx)
	for _, d := range ds {
		if d.Action != membership.ActionHold && !d.DryRun && d.Err == "" {
			if err := c.SyncView(); err != nil {
				return ds, err
			}
			break
		}
	}
	return ds, nil
}

// SetRingEnabled powers a ring on or off through the leading
// coordinator and has every frontend poll the fresh view.
func (c *Cluster) SetRingEnabled(ctx context.Context, ring int, enabled bool) error {
	if err := c.onLeader(ctx, func(coord *membership.Coordinator) error {
		return coord.SetRingEnabled(ctx, ring, enabled)
	}); err != nil {
		return err
	}
	return c.SyncView()
}

// SyncView has every frontend's Syncer poll the control plane once, as
// its loop does each tick: a view whose (Term, Epoch) moved installs,
// and the drained watermark reaches the result cache.
func (c *Cluster) SyncView() error {
	for _, s := range c.syncers {
		if err := s.Poll(context.Background()); err != nil {
			return err
		}
	}
	return nil
}

// AddFrontend starts a frontend kept current by its own Syncer over
// MCl, as roar-frontend is: it waits for the first view, then runs the
// poll and health loops. Several frontends are the harness's stand-in
// for a multi-frontend deployment (health aggregation across frontends,
// quarantine quorums). Closed with the cluster.
func (c *Cluster) AddFrontend(cfg frontend.Config) (*frontend.Frontend, error) {
	fe := frontend.New(cfg)
	s := frontend.NewSyncer(fe, c.MCl, frontend.SyncConfig{Logf: c.logf})
	if err := s.WaitFirstView(context.Background(), 10); err != nil {
		s.Stop()
		fe.Close()
		return nil, err
	}
	s.Start(context.Background())
	c.fes = append(c.fes, fe)
	c.syncers = append(c.syncers, s)
	return fe, nil
}

// PumpHealth runs one turn of the health loop ahead of the Syncers'
// tickers: every frontend pushes its report, then every frontend polls,
// so a report that moves the epoch reaches the frontends that reported
// before it too.
func (c *Cluster) PumpHealth() {
	for _, s := range c.syncers {
		_ = s.PushHealthOnce(context.Background())
	}
	_ = c.SyncView()
}

// Leader returns the replica that currently leads, or nil when there is
// none (a standalone control plane, an election in progress, or a split
// not yet resolved).
func (c *Cluster) Leader() *membership.Replica {
	var leader *membership.Replica
	for _, m := range c.members {
		if m.Replica != nil && m.Replica.IsLeader() {
			if leader != nil {
				return nil
			}
			leader = m.Replica
		}
	}
	return leader
}

// WaitLeader blocks until exactly one live replica leads.
func (c *Cluster) WaitLeader(timeout time.Duration) (*membership.Replica, error) {
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

// KillReplica crashes control-plane process i: its wire server goes
// down and the replica stops (its coordinator and peer clients close),
// so peers and clients see connection failures — the closest
// in-process stand-in for a killed roar-member.
func (c *Cluster) KillReplica(i int) {
	if i >= 0 && i < len(c.members) {
		c.members[i].Close()
	}
}

// ReplicaIndex maps a replica to its process slot, -1 when unknown.
func (c *Cluster) ReplicaIndex(r *membership.Replica) int {
	for i, m := range c.members {
		if m.Replica == r {
			return i
		}
	}
	return -1
}

// Close tears everything down.
func (c *Cluster) Close() {
	if c.AS != nil {
		c.AS.Stop()
	}
	for _, s := range c.syncers {
		s.Stop()
	}
	for _, fe := range c.fes {
		fe.Close()
	}
	if c.MCl != nil {
		c.MCl.Close()
	}
	for _, m := range c.members {
		m.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	os.RemoveAll(c.tmpDir)
}

// Nodes returns the in-process node handles (for direct inspection).
func (c *Cluster) Nodes() []*node.Node { return c.nodes }

// NodeIDs returns the membership-assigned ids, index-aligned with
// Nodes().
func (c *Cluster) NodeIDs() []ring.NodeID { return append([]ring.NodeID(nil), c.ids...) }

// GenerateCorpus builds and loads n synthetic documents; returns the
// plaintext docs for verification.
func (c *Cluster) GenerateCorpus(n int) ([]pps.Document, error) {
	corpus := workload.NewCorpus(2000, 7)
	files := corpus.Generate(n)
	docs := make([]pps.Document, n)
	recs := make([]pps.Encoded, n)
	for i, f := range files {
		docs[i] = pps.Document{
			ID:       c.rng.Uint64(),
			Path:     f.Path,
			Size:     f.Size,
			Modified: f.Modified,
			Keywords: limitKeywords(f.Keywords, 4),
		}
		r, err := c.Enc.EncryptDocument(docs[i])
		if err != nil {
			return nil, err
		}
		recs[i] = r
	}
	if err := c.LoadEncoded(recs); err != nil {
		return nil, err
	}
	return docs, nil
}

func limitKeywords(kws []string, max int) []string {
	if len(kws) <= max {
		return kws
	}
	return kws[:max]
}

// LoadEncoded loads pre-encrypted records as member.load does, through
// the leading coordinator's WAL, and returns once they reached every
// owner and every frontend has polled the watermark that brings its
// result cache past them.
func (c *Cluster) LoadEncoded(recs []pps.Encoded) error {
	ctx := context.Background()
	seq, err := c.IngestPut(ctx, recs...)
	if err != nil {
		return err
	}
	if err := c.WaitIngestDrained(ctx, seq); err != nil {
		return err
	}
	return c.SyncView()
}

// Query executes a query against the cluster.
func (c *Cluster) Query(ctx context.Context, op pps.BoolOp, preds ...pps.Predicate) (frontend.Result, error) {
	q, err := c.Enc.EncryptQuery(op, preds...)
	if err != nil {
		return frontend.Result{}, err
	}
	return c.FE.Query(ctx, frontend.QuerySpec{Enc: q})
}

// KillNode crashes node i: its server stops accepting and all its
// connections drop. The membership layer is NOT informed — the frontend
// must discover the failure through timeouts, exactly as in Fig 7.6.
func (c *Cluster) KillNode(i int) error {
	if i < 0 || i >= len(c.servers) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	return c.servers[i].Close()
}

// RecoverFailure tells the membership layer to redistribute a failed
// node's range (the long-term path of §4.9), and has every frontend
// poll the resulting view.
func (c *Cluster) RecoverFailure(ctx context.Context, i int) error {
	if err := c.onLeader(ctx, func(coord *membership.Coordinator) error {
		return coord.Decommission(ctx, c.ids[i])
	}); err != nil {
		return err
	}
	return c.SyncView()
}

// NodeStats polls every live node's counters.
func (c *Cluster) NodeStats(ctx context.Context) []proto.StatsResp {
	out := make([]proto.StatsResp, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Stats()
	}
	return out
}
