// Package membership implements the centralised membership server of
// §4.9: it owns the ring topology (node ranges, one or more rings),
// inserts new servers at hotspots, redistributes ranges around departed
// or failed nodes, drives the §4.5 partitioning-level transitions, runs
// the range load-balancing process, and can power whole rings on and off
// to track diurnal load (§4.9.1).
//
// The coordinator doubles as the backend file store of §4.1 (the NFS
// stand-in): it holds the full corpus and pushes each node exactly the
// records its stored set requires.
package membership

import (
	"context"
	"fmt"
	"sync"

	"roar/internal/ingest"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/store"
	"roar/internal/wire"
)

// Config tunes the coordinator.
type Config struct {
	Rings int // number of rings (default 1)
	P     int // initial partitioning level (required)
	// Backend, when set, is used as the corpus store instead of a fresh
	// empty one. Replicated coordinators point every replica at the
	// same store — the paper's shared NFS backend (§4.1) — so a newly
	// elected leader can complete data-moving reconfigurations without
	// re-ingesting the corpus.
	Backend *store.Store
	// Health tunes the failure/overload control loop (health.go).
	// Zero values use the documented defaults.
	Health HealthConfig
	// WAL, when set, enables the durable ingest pipeline (ingest.go):
	// IngestAppend accepts writes into it and StartIngest drains them
	// to the owning nodes asynchronously. Replicated coordinators point
	// every replica at the same WAL (like Backend) so a newly elected
	// leader resumes the drain from the replicated watermark.
	WAL *ingest.WAL
}

const (
	// balanceThreshold is the load-difference fraction below which
	// neighbours stop balancing (§4.9: 10%).
	balanceThreshold = 0.10
	// putChunk bounds the records of one push RPC.
	putChunk = 2000
)

// Coordinator is the membership server.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	rings    []*ring.Ring
	ringOf   map[ring.NodeID]int
	addrs    map[ring.NodeID]string
	speeds   map[ring.NodeID]float64 // capacity hints / reported speeds
	racks    map[ring.NodeID]string  // rack labels (§4.9.2)
	clients  map[ring.NodeID]*wire.Client
	disabled map[int]bool // powered-down rings
	p        int
	epoch    int
	nextID   ring.NodeID

	backend *store.Store // full corpus
	health  *healthState // failure-evidence aggregation (health.go)

	// Durable ingest pipeline (ingest.go): wal buffers accepted writes,
	// consumer drains them, ingestSeq/ingestDrained are the accepted and
	// delivered watermarks.
	wal           *ingest.WAL
	ownsWAL       bool // opened for this coordinator alone; Close closes it
	consumer      *ingest.Consumer
	ingestSeq     uint64
	ingestDrained uint64
	// ingestTargets holds the delivery target ingestRoute built for each
	// node under ingestTargetsEpoch, so the records of a batch share one
	// key string and push closure per node; emptied when the epoch moves.
	ingestTargets      map[ring.NodeID]ingestTarget
	ingestTargetsEpoch int

	// Transfer accounting for the reconfiguration experiments.
	objectsPushed int64
}

// New builds a coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.P <= 0 {
		return nil, fmt.Errorf("membership: initial p must be positive")
	}
	if cfg.Rings <= 0 {
		cfg.Rings = 1
	}
	backend := cfg.Backend
	if backend == nil {
		backend = store.New()
	}
	c := &Coordinator{
		cfg:      cfg,
		ringOf:   map[ring.NodeID]int{},
		addrs:    map[ring.NodeID]string{},
		speeds:   map[ring.NodeID]float64{},
		racks:    map[ring.NodeID]string{},
		clients:  map[ring.NodeID]*wire.Client{},
		disabled: map[int]bool{},
		p:        cfg.P,
		backend:  backend,
		health:   newHealthState(cfg.Health),
		wal:      cfg.WAL,
	}
	for k := 0; k < cfg.Rings; k++ {
		c.rings = append(c.rings, ring.New())
	}
	return c, nil
}

// Close stops the ingest drain and shuts node clients. The consumer is
// stopped before taking mu: its drain goroutine routes through mu, so
// stopping it under the lock would deadlock.
func (c *Coordinator) Close() {
	c.StopIngest()
	if c.ownsWAL && c.wal != nil {
		c.wal.Close()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cl := range c.clients {
		cl.Close()
	}
}

// P returns the current safe partitioning level.
func (c *Coordinator) P() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.p
}

// ObjectsPushed returns the cumulative records transferred to nodes —
// the reconfiguration/update traffic counter.
func (c *Coordinator) ObjectsPushed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.objectsPushed
}

// View snapshots the cluster for frontends. Disabled rings are hidden.
func (c *Coordinator) View() proto.View {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.viewLocked()
}

func (c *Coordinator) viewLocked() proto.View {
	// The ingest watermarks ride every view so frontends can fence their
	// result caches against deliveries that never bump the epoch.
	v := proto.View{
		Epoch: c.epoch, P: c.p,
		Ingested: c.ingestSeq, Drained: c.ingestDrained,
	}
	c.health.mu.Lock()
	quarantined := make(map[ring.NodeID]bool, len(c.health.quarantined))
	for id := range c.health.quarantined {
		quarantined[id] = true
	}
	c.health.mu.Unlock()
	for k, r := range c.rings {
		if c.disabled[k] {
			continue
		}
		for _, nr := range r.Nodes() {
			v.Nodes = append(v.Nodes, proto.NodeInfo{
				ID: int(nr.ID), Ring: k, Start: float64(nr.Start), Addr: c.addrs[nr.ID],
				// Quarantined nodes stay in the view — they keep their
				// range and data, frontends just must not schedule them.
				Quarantined: quarantined[nr.ID],
			})
		}
	}
	return v
}

// LoadCorpus installs the full object set on the backend and pushes
// every node its stored range. Call after the nodes have joined.
func (c *Coordinator) LoadCorpus(ctx context.Context, recs []pps.Encoded) error {
	c.mu.Lock()
	c.backend.Insert(recs...)
	ids := c.allNodesLocked()
	c.mu.Unlock()
	for _, id := range ids {
		if err := c.pushStored(ctx, id); err != nil {
			return err
		}
	}
	return nil
}

// AddObject stores one new object and pushes it to its current replica
// set — the update path whose cost grows with r (Fig 7.4). It returns
// the number of replicas the object actually reached: nil clients and
// failed pushes do not count, and the push counter advances only for
// deliveries that succeeded. On error the successes made before (and
// after — the remaining targets are still attempted) are all included,
// so the caller knows the true replication factor achieved.
func (c *Coordinator) AddObject(ctx context.Context, rec pps.Encoded) (replicas int, err error) {
	c.mu.Lock()
	c.backend.Insert(rec)
	pt := store.PointOf(rec.ID)
	repl := ring.ReplicationArc(pt, c.p)
	epoch := c.epoch
	var targets []ring.NodeID
	for k, r := range c.rings {
		if c.disabled[k] {
			continue
		}
		targets = append(targets, r.Holders(repl)...)
	}
	clients := make([]*wire.Client, 0, len(targets))
	for _, id := range targets {
		clients = append(clients, c.clients[id])
	}
	c.mu.Unlock()
	var firstErr error
	for i, cl := range clients {
		if cl == nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("membership: no client for node %d", targets[i])
			}
			continue
		}
		if perr := putRecords(ctx, cl, epoch, []pps.Encoded{rec}); perr != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("membership: pushing object %d: %w", rec.ID, perr)
			}
			continue
		}
		replicas++
	}
	c.mu.Lock()
	c.objectsPushed += int64(replicas)
	c.mu.Unlock()
	return replicas, firstErr
}

func (c *Coordinator) allNodesLocked() []ring.NodeID {
	var out []ring.NodeID
	for _, r := range c.rings {
		out = append(out, r.IDs()...)
	}
	return out
}

// JoinRack registers a node with a rack label: when possible it is
// placed adjacent to an existing node of the same rack, so replication
// pushes travel mostly intra-rack (§4.9.2's cross-sectional bandwidth
// optimisation). Falls back to hotspot placement when the rack is new.
func (c *Coordinator) JoinRack(ctx context.Context, addr string, speedHint float64, rack string) (proto.JoinResp, error) {
	if rack == "" {
		return c.Join(ctx, addr, speedHint)
	}
	c.mu.Lock()
	var anchor ring.NodeID = ring.InvalidNode
	var anchorRing int
	for id, rk := range c.racks {
		if rk == rack {
			if k, ok := c.ringOf[id]; ok {
				anchor, anchorRing = id, k
				break
			}
		}
	}
	if anchor == ring.InvalidNode {
		c.mu.Unlock()
		resp, err := c.Join(ctx, addr, speedHint)
		if err == nil {
			c.mu.Lock()
			c.racks[ring.NodeID(resp.ID)] = rack
			c.mu.Unlock()
		}
		return resp, err
	}
	// Split the same-rack anchor's range: the new node lands next to it.
	r := c.rings[anchorRing]
	a, err := r.Range(anchor)
	if err != nil {
		c.mu.Unlock()
		return proto.JoinResp{}, err
	}
	id := c.nextID
	c.nextID++
	start := a.Start.Add(a.Length / 2)
	if err := r.Insert(id, start); err != nil {
		c.mu.Unlock()
		return proto.JoinResp{}, fmt.Errorf("membership: rack join: %w", err)
	}
	c.ringOf[id] = anchorRing
	c.addrs[id] = addr
	c.speeds[id] = speedHint
	c.racks[id] = rack
	c.clients[id] = wire.NewClient(addr)
	c.epoch++
	c.mu.Unlock()
	if err := c.pushStored(ctx, id); err != nil {
		return proto.JoinResp{}, err
	}
	if err := c.sendRetain(ctx, anchor); err != nil {
		return proto.JoinResp{}, err
	}
	return proto.JoinResp{ID: int(id), Ring: anchorRing, Start: float64(start)}, nil
}

// RackOf returns a node's rack label ("" when unlabelled).
func (c *Coordinator) RackOf(id ring.NodeID) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.racks[id]
}

// Join registers a node: it is placed on the ring with the least
// capacity, splitting the range of the currently "hottest" node (the
// one with the largest range per unit of speed, §4.9's proxy for load),
// then loaded with its stored set.
func (c *Coordinator) Join(ctx context.Context, addr string, speedHint float64) (proto.JoinResp, error) {
	if speedHint <= 0 {
		speedHint = 1
	}
	c.mu.Lock()
	id := c.nextID
	c.nextID++
	// Ring with least total capacity (§4.9: equal capacity per ring).
	bestRing, bestCap := 0, -1.0
	for k, r := range c.rings {
		var cap float64
		for _, nid := range r.IDs() {
			cap += c.speeds[nid]
		}
		if bestCap < 0 || cap < bestCap {
			bestRing, bestCap = k, cap
		}
		_ = r
	}
	r := c.rings[bestRing]
	var start ring.Point
	if r.Len() == 0 {
		start = 0
	} else {
		// Hottest node: largest range/speed ratio.
		hot, hotScore := ring.InvalidNode, -1.0
		for _, nid := range r.IDs() {
			a, err := r.Range(nid)
			if err != nil {
				continue
			}
			sp := c.speeds[nid]
			if sp <= 0 {
				sp = 1
			}
			if score := a.Length / sp; score > hotScore {
				hot, hotScore = nid, score
			}
		}
		a, err := r.Range(hot)
		if err != nil {
			c.mu.Unlock()
			return proto.JoinResp{}, fmt.Errorf("membership: hotspot lookup: %w", err)
		}
		start = a.Start.Add(a.Length / 2) // split the hot range in half
	}
	if err := r.Insert(id, start); err != nil {
		c.mu.Unlock()
		return proto.JoinResp{}, fmt.Errorf("membership: inserting node: %w", err)
	}
	c.ringOf[id] = bestRing
	c.addrs[id] = addr
	c.speeds[id] = speedHint
	c.clients[id] = wire.NewClient(addr)
	c.epoch++
	c.mu.Unlock()

	// Load the new node, then trim the split neighbour (it keeps data
	// for its shrunken stored set only).
	if err := c.pushStored(ctx, id); err != nil {
		return proto.JoinResp{}, err
	}
	c.mu.Lock()
	pred, perr := r.Predecessor(id)
	c.mu.Unlock()
	if perr == nil && pred != id {
		if err := c.sendRetain(ctx, pred); err != nil {
			return proto.JoinResp{}, err
		}
	}
	return proto.JoinResp{ID: int(id), Ring: bestRing, Start: float64(start)}, nil
}

// Leave removes a node gracefully (§4.4 "Removing Nodes"): its range is
// absorbed by the predecessor, which is loaded with the data it lacks
// before the topology change becomes visible.
func (c *Coordinator) Leave(ctx context.Context, id ring.NodeID) error {
	c.health.forget(id)
	c.mu.Lock()
	k, ok := c.ringOf[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("membership: node %d unknown", id)
	}
	r := c.rings[k]
	pred, err := r.Predecessor(id)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	if err := r.Remove(id); err != nil {
		c.mu.Unlock()
		return err
	}
	delete(c.ringOf, id)
	delete(c.addrs, id)
	delete(c.speeds, id)
	if cl := c.clients[id]; cl != nil {
		cl.Close()
	}
	delete(c.clients, id)
	c.epoch++
	c.mu.Unlock()
	if pred != id && r.Len() > 0 {
		return c.pushStored(ctx, pred)
	}
	return nil
}

// Decommission is Leave for a dead node: identical bookkeeping, but the
// replacement data necessarily comes from the backend. It is the
// long-term path of §4.9, taken when a node is known to be permanently
// gone — transient failure evidence goes through HandleFailure and the
// quarantine loop instead (health.go).
func (c *Coordinator) Decommission(ctx context.Context, id ring.NodeID) error {
	return c.Leave(ctx, id)
}

// ChangeP performs the §4.5 transition to a new partitioning level.
// Increasing p (dropping replicas) switches the safe level immediately
// and lets nodes trim in their own time. Decreasing p (adding replicas)
// pushes the missing arc to every node, waits for all confirmations,
// and only then publishes the new level.
func (c *Coordinator) ChangeP(ctx context.Context, newP int) error {
	c.mu.Lock()
	oldP := c.p
	if newP <= 0 {
		c.mu.Unlock()
		return fmt.Errorf("membership: p must be positive")
	}
	if newP == oldP {
		c.mu.Unlock()
		return nil
	}
	ids := c.allNodesLocked()
	c.mu.Unlock()

	if newP > oldP {
		// Safe immediately: queries with larger pq always cover.
		c.mu.Lock()
		c.p = newP
		c.epoch++
		c.mu.Unlock()
		for _, id := range ids {
			if err := c.sendRetain(ctx, id); err != nil {
				return err
			}
		}
		return nil
	}
	// newP < oldP: push each node the replica arc it lacks:
	// (start-1/newP, start-1/oldP].
	grow := 1/float64(newP) - 1/float64(oldP)
	for _, id := range ids {
		c.mu.Lock()
		arc, _, err := c.nodeRangeLocked(id)
		cl := c.clients[id]
		epoch := c.epoch
		c.mu.Unlock()
		if err != nil {
			return err
		}
		lo := arc.Start.Add(-1 / float64(newP))
		hi := arc.Start.Add(-1 / float64(oldP))
		_ = grow
		recs := c.backend.InArc(lo, hi)
		if err := c.pushRecords(ctx, cl, id, epoch, recs); err != nil {
			return err
		}
	}
	// All confirmed (pushes above are synchronous): publish.
	c.mu.Lock()
	c.p = newP
	c.epoch++
	c.mu.Unlock()
	return nil
}

// BalanceStep runs one round of the §4.3/§4.9 range load balancing:
// every node whose successor is more than the threshold more loaded
// expands into it (and vice versa). loads maps node id to any
// monotone load metric (busy fraction, range/speed, ...). moveFrac is
// the fraction of the heavier node's range transferred per step (the
// "slow background rate"); 0 means 10%.
func (c *Coordinator) BalanceStep(ctx context.Context, loads map[ring.NodeID]float64, moveFrac float64) (moves int, err error) {
	if moveFrac <= 0 {
		moveFrac = 0.10
	}
	type move struct {
		grow, shrink ring.NodeID
		newStart     ring.Point
	}
	var moves_ []move
	c.mu.Lock()
	for k, r := range c.rings {
		if c.disabled[k] || r.Len() < 2 {
			continue
		}
		for _, id := range r.IDs() {
			succ, err := r.Successor(id)
			if err != nil || succ == id {
				continue
			}
			li, ls := loads[id], loads[succ]
			if li == 0 && ls == 0 {
				continue
			}
			// Expand the lighter node into the heavier successor
			// (§4.3: grow into a more loaded neighbour).
			if ls > li*(1+balanceThreshold) {
				sa, err := r.Range(succ)
				if err != nil {
					continue
				}
				shift := sa.Length * moveFrac
				ns := sa.Start.Add(shift)
				if err := r.SetStart(succ, ns); err == nil {
					moves_ = append(moves_, move{grow: id, shrink: succ, newStart: ns})
				}
			}
		}
	}
	if len(moves_) > 0 {
		c.epoch++
	}
	c.mu.Unlock()
	for _, m := range moves_ {
		if err := c.pushStored(ctx, m.grow); err != nil {
			return len(moves_), err
		}
		if err := c.sendRetain(ctx, m.shrink); err != nil {
			return len(moves_), err
		}
	}
	return len(moves_), nil
}

// SetRingEnabled powers a ring on or off (§4.9.1 diurnal adaptation).
// Nodes keep their ranges while disabled, so re-enabling is cheap; the
// caller must ensure the remaining rings still hold all data (each ring
// holds a full copy, so any single enabled ring suffices).
func (c *Coordinator) SetRingEnabled(ctx context.Context, k int, enabled bool) error {
	c.mu.Lock()
	if k < 0 || k >= len(c.rings) {
		c.mu.Unlock()
		return fmt.Errorf("membership: no ring %d", k)
	}
	if !enabled {
		on := 0
		for i := range c.rings {
			if !c.disabled[i] && c.rings[i].Len() > 0 {
				on++
			}
		}
		if on <= 1 && !c.disabled[k] {
			c.mu.Unlock()
			return fmt.Errorf("membership: cannot disable the last ring")
		}
	}
	c.disabled[k] = !enabled
	c.epoch++
	ids := append([]ring.NodeID(nil), c.rings[k].IDs()...)
	c.mu.Unlock()
	if enabled {
		// Refresh returning nodes: they kept their ranges (§4.9's range
		// history) and only need the delta since shutdown; pushes are
		// idempotent so we simply re-push the stored set.
		for _, id := range ids {
			if err := c.pushStored(ctx, id); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReportSpeeds folds frontend speed observations into placement
// decisions (§4.9: the membership server downloads statistics from the
// front-ends).
func (c *Coordinator) ReportSpeeds(speeds map[ring.NodeID]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, s := range speeds {
		if _, ok := c.ringOf[id]; ok && s > 0 {
			c.speeds[id] = s
		}
	}
}

func (c *Coordinator) nodeRangeLocked(id ring.NodeID) (ring.Arc, int, error) {
	k, ok := c.ringOf[id]
	if !ok {
		return ring.Arc{}, -1, fmt.Errorf("membership: node %d unknown", id)
	}
	a, err := c.rings[k].Range(id)
	return a, k, err
}

// pushStored sends a node every backend record in its stored set.
func (c *Coordinator) pushStored(ctx context.Context, id ring.NodeID) error {
	c.mu.Lock()
	arc, _, err := c.nodeRangeLocked(id)
	cl := c.clients[id]
	p := c.p
	epoch := c.epoch
	c.mu.Unlock()
	if err != nil {
		return err
	}
	repl := 1 / float64(p)
	var recs []pps.Encoded
	if arc.Length+repl >= 1 {
		recs = c.backend.InArc(0.5, 0.5-1e-15) // effectively everything
	} else {
		recs = c.backend.InArc(arc.Start.Add(-repl), arc.End())
	}
	return c.pushRecords(ctx, cl, id, epoch, recs)
}

func (c *Coordinator) pushRecords(ctx context.Context, cl *wire.Client, id ring.NodeID, epoch int, recs []pps.Encoded) error {
	if cl == nil {
		return fmt.Errorf("membership: no client for node %d", id)
	}
	for off := 0; off < len(recs); off += putChunk {
		end := off + putChunk
		if end > len(recs) {
			end = len(recs)
		}
		if err := putRecords(ctx, cl, epoch, recs[off:end]); err != nil {
			return fmt.Errorf("membership: pushing to node %d: %w", id, err)
		}
	}
	c.mu.Lock()
	c.objectsPushed += int64(len(recs))
	c.mu.Unlock()
	return nil
}

// putRecords sends one epoch-fenced MNodePut.
func putRecords(ctx context.Context, cl *wire.Client, epoch int, recs []pps.Encoded) error {
	return cl.Call(ctx, proto.MNodePut, proto.PutReq{Records: recs, Epoch: epoch}, nil)
}

// sendRetain tells a node its current range and p so it trims excess
// replicas. It carries the publishing epoch so the node's fence
// advances with the placement.
func (c *Coordinator) sendRetain(ctx context.Context, id ring.NodeID) error {
	c.mu.Lock()
	arc, _, err := c.nodeRangeLocked(id)
	cl := c.clients[id]
	p := c.p
	epoch := c.epoch
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if cl == nil {
		return fmt.Errorf("membership: no client for node %d", id)
	}
	req := proto.RetainReq{Start: float64(arc.Start), Length: arc.Length, P: p, Epoch: epoch}
	if err := cl.Call(ctx, proto.MNodeRetain, req, nil); err != nil {
		return fmt.Errorf("membership: retain on node %d: %w", id, err)
	}
	return nil
}
