// Package cluster is the in-process test harness for the full ROAR
// system: N data nodes served over loopback TCP, a membership
// coordinator, and a frontend — the same roles as the paper's Hen/EC2
// deployments (§7.1), shrunk onto one machine. All experiment code and
// the integration tests run through this package so they exercise the
// complete networked path: scheduling, RPC, matching, reconfiguration
// and failure handling.
package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"roar/internal/frontend"
	"roar/internal/ingest"
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
	// coordinator (not started: tests drive it with StepAutoscale for
	// determinism; call Cluster.AS.Start for the background loop).
	Autoscale *membership.AutoscaleConfig
	// Encoder overrides the PPS encoding (nil = SlimEncoderConfig; a
	// pointer to the zero pps.EncoderConfig is the paper-sized encoder,
	// 500B of metadata).
	Encoder *pps.EncoderConfig

	// IngestDir is the coordinator's WAL directory, through which every
	// record reaches the nodes (LoadEncoded and IngestPut alike). Empty
	// means a temporary directory that Close removes.
	IngestDir string
	// IngestBatch caps records per drain round (0 = consumer default).
	IngestBatch int

	Seed int64
}

// Cluster is a running system.
type Cluster struct {
	Enc   *pps.Encoder
	Coord *membership.Coordinator
	FE    *frontend.Frontend
	// AS is the attached elasticity controller (nil unless
	// Options.Autoscale was set).
	AS *membership.Autoscaler

	nodes    []*node.Node
	servers  []*wire.Server
	ids      []ring.NodeID
	extraFEs []*frontend.Frontend
	tmpDir   string // the WAL directory Close removes, if the harness made it
	rng      *rand.Rand
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

// Start builds and starts a cluster.
func Start(opts Options) (*Cluster, error) {
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
	wal, err := ingest.Open(dir, ingest.Options{})
	if err != nil {
		os.RemoveAll(tmpDir)
		return nil, err
	}
	coord, err := membership.New(membership.Config{Rings: opts.Rings, P: opts.P, Health: opts.Health, WAL: wal})
	if err != nil {
		wal.Close()
		os.RemoveAll(tmpDir)
		return nil, err
	}
	c := &Cluster{Enc: enc, Coord: coord, tmpDir: tmpDir, rng: rand.New(rand.NewSource(opts.Seed))}

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
		jr, err := coord.Join(context.Background(), srv.Addr(), hint)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.ids = append(c.ids, ring.NodeID(jr.ID))
	}

	// The coordinator's log is where a cached frontend reads the records
	// that bring its answers forward past a drain.
	fe := frontend.New(opts.Frontend)
	fe.SetDrainSource(coord)
	c.FE = fe
	if err := c.SyncView(); err != nil {
		c.Close()
		return nil, err
	}
	if opts.Autoscale != nil {
		c.AS = coord.NewAutoscaler(*opts.Autoscale)
	}
	coord.StartIngest(membership.IngestConfig{Batch: opts.IngestBatch})
	return c, nil
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

// IngestPut appends records to the coordinator's WAL and returns the
// sequence of the last one; delivery to the owning nodes is
// asynchronous — WaitIngestDrained blocks on it.
func (c *Cluster) IngestPut(ctx context.Context, recs ...pps.Encoded) (uint64, error) {
	return c.Coord.IngestAppend(ctx, recs)
}

// WaitIngestDrained blocks until every record with sequence <= seq has
// been delivered to all of its owners, or ctx ends.
func (c *Cluster) WaitIngestDrained(ctx context.Context, seq uint64) error {
	return c.Coord.WaitIngestDrained(ctx, seq)
}

// StepAutoscale runs one elasticity-controller evaluation and, when it
// actually reconfigured something, pushes the fresh view to every
// frontend — the harness equivalent of the frontends' epoch-triggered
// re-pull. Dry-run decisions, refusals ("hold"), and failed executions
// mutate nothing, so they trigger no view push.
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

// SetRingEnabled powers a ring on or off through the coordinator and
// re-syncs every frontend's view.
func (c *Cluster) SetRingEnabled(ctx context.Context, ring int, enabled bool) error {
	if err := c.Coord.SetRingEnabled(ctx, ring, enabled); err != nil {
		return err
	}
	return c.SyncView()
}

// SyncView pushes the coordinator's current view to every frontend.
func (c *Cluster) SyncView() error {
	v := c.Coord.View()
	for _, fe := range c.extraFEs {
		if err := fe.ApplyView(v); err != nil {
			return err
		}
	}
	return c.FE.ApplyView(v)
}

// AddFrontend starts an additional frontend against the current view —
// the harness's stand-in for a real multi-frontend deployment (health
// aggregation across frontends, quarantine quorums) — reading drained
// records from the coordinator, as Start's does. Closed with the
// cluster.
func (c *Cluster) AddFrontend(cfg frontend.Config) (*frontend.Frontend, error) {
	fe := frontend.New(cfg)
	fe.SetDrainSource(c.Coord)
	if err := fe.ApplyView(c.Coord.View()); err != nil {
		fe.Close()
		return nil, err
	}
	c.extraFEs = append(c.extraFEs, fe)
	return fe, nil
}

// PumpHealth runs one turn of the health loop: every frontend pushes its
// report to the coordinator, then every frontend whose view is stale
// against the coordinator's epoch re-pulls it — what cmd/roar-frontend's
// background pushers do on their tickers. The re-pull waits for the
// whole round, so a report that moves the epoch reaches the frontends
// that reported before it too.
func (c *Cluster) PumpHealth() {
	fes := append([]*frontend.Frontend{c.FE}, c.extraFEs...)
	for _, fe := range fes {
		_, _ = c.Coord.ReportHealth(fe.HealthReport()) // standalone: nothing to commit, cannot fail
	}
	v := c.Coord.View()
	for _, fe := range fes {
		if fe.View().Epoch != v.Epoch {
			_ = fe.ApplyView(v)
		}
	}
}

// Close tears everything down.
func (c *Cluster) Close() {
	if c.AS != nil {
		c.AS.Stop()
	}
	for _, fe := range c.extraFEs {
		fe.Close()
	}
	if c.FE != nil {
		c.FE.Close()
	}
	if c.Coord != nil {
		c.Coord.Close()
	}
	for _, s := range c.servers {
		if s != nil {
			s.Close()
		}
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

// LoadEncoded loads pre-encrypted records through the WAL and returns
// once they reached every owner, then hands every frontend the view
// whose advanced ingest watermarks fence its result cache — the
// harness's stand-in for the frontends' view poll.
func (c *Cluster) LoadEncoded(recs []pps.Encoded) error {
	if err := c.Coord.LoadCorpus(context.Background(), recs); err != nil {
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
// node's range (the long-term path of §4.9).
func (c *Cluster) RecoverFailure(ctx context.Context, i int) error {
	if err := c.Coord.Decommission(ctx, c.ids[i]); err != nil {
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
