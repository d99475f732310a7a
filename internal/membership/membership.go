// Package membership implements the centralised membership server of
// §4.9: it owns the ring topology (node ranges, one or more rings),
// inserts new servers at hotspots, redistributes ranges around departed
// or failed nodes, drives the §4.5 partitioning-level transitions, runs
// the range load-balancing process, and can power whole rings on and off
// to track diurnal load (§4.9.1).
//
// The coordinator doubles as the backend file store of §4.1 (the NFS
// stand-in): it pushes each node exactly the records its stored set
// requires when that set changes. The store it reads them from is its
// write-ahead log (ingest.go), the one way a record enters the system:
// the backend is the log's records read into an id-keyed store, and a
// push first catches it up to the log's durable end (catchUp). So the
// backend is empty until the first push, a newly elected leader's
// included, and writes never touch it.
//
// One type serves every caller. The Coordinator owns the state machine
// and decides every commit point: each mutator applies its change (data
// moves included), releases its locks, and then hands the resulting
// state to its commit hook; ChangeP also commits its intent before the
// first push. A standalone coordinator has no hook and term 0. A
// Replica (replica.go) owns election and the decision register: it
// builds a coordinator when it wins term T, installs the hook with T,
// and followers apply committed snapshots without running one.
// RegisterHandlers serves the member.* surface for both.
package membership

import (
	"context"
	"fmt"
	"math"
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
	// Health tunes the failure/overload control loop (health.go).
	// Zero values use the documented defaults.
	Health HealthConfig
	// WAL is the coordinator's log (ingest.go): IngestAppend and
	// LoadCorpus append to it, StartIngest drains it to the owning nodes,
	// and every push reads the backend's new records from it. The
	// coordinator closes it in Close. A replica opens its leader's log
	// through ReplicaConfig.OpenWAL instead. Without one the coordinator
	// takes no records.
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

	health *healthState // failure-evidence aggregation (health.go)

	// backend holds the log's records up to sequence applied, the last
	// write of each id. Only catchUp writes either, under catchMu.
	catchMu sync.Mutex
	backend *store.Store
	applied uint64

	// Durable ingest pipeline (ingest.go): wal buffers accepted writes,
	// consumer drains them to the nodes, ingestDrained is the delivered
	// watermark.
	wal           *ingest.WAL
	consumer      *ingest.Consumer
	ingestDrained uint64
	// tail reads the drained records frontends ask for (drainedSince),
	// from where its last read ended; nil until the first request.
	tailMu sync.Mutex
	tail   *ingest.Tail
	// ingestTargets holds the delivery target routeBatch built for each
	// node under ingestTargetsEpoch, so the records of a batch share one
	// key string and push closure per node; emptied when the epoch moves.
	ingestTargets      map[ring.NodeID]ingestTarget
	ingestTargetsEpoch int

	// Transfer accounting for the reconfiguration experiments.
	objectsPushed int64

	// pendingP is the p a ChangeP in progress moves to (0 when none).
	// routeBatch routes by it when it is the lower. It rides every
	// snapshot, so a decision committed while data moves keeps the intent
	// for a successor to finish.
	pendingP int

	// term and commit are set once, by the Replica that builds this
	// coordinator for its leadership term, before anyone else sees it:
	// commit replicates the coordinator's state, snapshotted when the
	// entry's turn comes, as one decision of that term and returns after
	// a majority holds it. Nil (and term 0) on a standalone coordinator.
	term   uint64
	commit func(kind uint8) error
}

// commitState commits the coordinator's current state (a no-op without
// a hook). Callers hold no lock: a failed commit steps the leader down
// and closes this coordinator, so they return its error and stop.
func (c *Coordinator) commitState() error {
	if c.commit == nil {
		return nil
	}
	return c.commit(proto.EntryState)
}

// commitAfter commits once a mutation succeeded, and passes a failed
// one's error through.
func (c *Coordinator) commitAfter(err error) error {
	if err != nil {
		return err
	}
	return c.commitState()
}

// New builds a coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.P <= 0 {
		return nil, fmt.Errorf("membership: initial p must be positive")
	}
	if cfg.Rings <= 0 {
		cfg.Rings = 1
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
		backend:  store.New(),
		health:   newHealthState(cfg.Health),
		wal:      cfg.WAL,
	}
	for k := 0; k < cfg.Rings; k++ {
		c.rings = append(c.rings, ring.New())
	}
	return c, nil
}

// Close stops the ingest drain, closes the WAL and shuts node clients.
// The consumer is stopped before taking mu: its drain goroutine routes
// through mu, so stopping it under the lock would deadlock.
func (c *Coordinator) Close() {
	c.StopIngest()
	c.tailMu.Lock()
	if c.tail != nil {
		c.tail.Close()
	}
	c.tailMu.Unlock()
	if c.wal != nil {
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
// It carries the coordinator's term, so a deposed leader's views are
// rejectable (frontend.ErrStaleView).
func (c *Coordinator) View() proto.View {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.viewLocked()
}

func (c *Coordinator) viewLocked() proto.View {
	// The drained watermark rides every view so frontends can fence
	// their result caches against deliveries that never bump the epoch.
	v := proto.View{Term: c.term, Epoch: c.epoch, P: c.p, Drained: c.ingestDrained}
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

// LoadCorpus appends a corpus to the WAL and waits, as long as ctx
// allows, until the drain has delivered it to every owning node: one
// IngestAppend and one WaitIngestDrained. Call after StartIngest. Like
// any write it advances the ingest watermarks, which is what fences the
// frontends' result caches.
func (c *Coordinator) LoadCorpus(ctx context.Context, recs []pps.Encoded) error {
	seq, err := c.IngestAppend(ctx, recs)
	if err != nil {
		return err
	}
	return c.WaitIngestDrained(ctx, seq)
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
	resp, err := c.join(ctx, addr, speedHint, rack)
	if err != nil {
		return proto.JoinResp{}, err
	}
	return resp, c.commitState()
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
	return c.JoinRack(ctx, addr, speedHint, "")
}

// usableSpeed reports whether s is positive and finite. NaN fails every
// comparison, so a plain s <= 0 test lets it through.
func usableSpeed(s float64) bool {
	return s > 0 && s <= math.MaxFloat64
}

// join places a node where placeLocked says, labels it with rack, if
// any, loads it with its stored set and trims the neighbour whose range
// it split.
func (c *Coordinator) join(ctx context.Context, addr string, speedHint float64, rack string) (proto.JoinResp, error) {
	if !usableSpeed(speedHint) {
		speedHint = 1
	}
	c.mu.Lock()
	k, start, err := c.placeLocked(rack)
	if err != nil {
		c.mu.Unlock()
		return proto.JoinResp{}, err
	}
	r := c.rings[k]
	id := c.nextID
	if err := r.Insert(id, start); err != nil {
		c.mu.Unlock()
		return proto.JoinResp{}, fmt.Errorf("membership: inserting node: %w", err)
	}
	c.nextID++
	c.ringOf[id] = k
	c.addrs[id] = addr
	c.speeds[id] = speedHint
	if rack != "" {
		c.racks[id] = rack
	}
	c.clients[id] = wire.NewClient(addr)
	c.epoch++
	c.mu.Unlock()

	// Load the new node, then trim its predecessor, the split neighbour
	// (it keeps data for its shrunken stored set only).
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
	return proto.JoinResp{ID: int(id), Ring: k, Start: float64(start)}, nil
}

// placeLocked picks a joining node's ring and start point. A node whose
// rack already has a member splits that member's range. Any other node
// joins the ring with the least total capacity (§4.9: equal capacity per
// ring) and splits the range of its hottest node.
func (c *Coordinator) placeLocked(rack string) (int, ring.Point, error) {
	if rack != "" {
		for id, rk := range c.racks {
			if k, ok := c.ringOf[id]; ok && rk == rack {
				a, err := c.rings[k].Range(id)
				if err != nil {
					return 0, 0, err
				}
				return k, a.Start.Add(a.Length / 2), nil
			}
		}
	}
	bestRing, bestCap := 0, -1.0
	for k, r := range c.rings {
		var cap float64
		for _, nid := range r.IDs() {
			cap += c.speeds[nid]
		}
		if bestCap < 0 || cap < bestCap {
			bestRing, bestCap = k, cap
		}
	}
	r := c.rings[bestRing]
	if r.Len() == 0 {
		return bestRing, 0, nil
	}
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
		return 0, 0, fmt.Errorf("membership: hotspot lookup: %w", err)
	}
	return bestRing, a.Start.Add(a.Length / 2), nil // split the hot range in half
}

// Leave removes a node gracefully (§4.4 "Removing Nodes"): its range is
// absorbed by the predecessor, which is loaded with the data it lacks
// before the topology change becomes visible.
func (c *Coordinator) Leave(ctx context.Context, id ring.NodeID) error {
	return c.commitAfter(c.leave(ctx, id))
}

func (c *Coordinator) leave(ctx context.Context, id ring.NodeID) error {
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
// gone — transient failure evidence goes through ReportHealth and the
// quarantine loop instead (health.go).
func (c *Coordinator) Decommission(ctx context.Context, id ring.NodeID) error {
	return c.Leave(ctx, id)
}

// ChangeP performs the §4.5 transition to a new partitioning level.
// Increasing p (dropping replicas) switches the safe level immediately
// and lets nodes trim in their own time. Decreasing p (adding replicas)
// pushes the missing arc to every node, waits for all confirmations,
// and only then publishes the new level. From before the first push
// until the publish the drain routes by the new level (pendingP), so a
// record accepted meanwhile also reaches the holders it is about to
// gain, whose pushes may have read the backend before it.
//
// A replicated coordinator brackets the transition with log entries: an
// intent (PendingP = newP) commits before any data moves, so a successor
// finishes the work if this leader dies mid-way, and the closing state
// entry clears it. A call for the p that already holds (a re-driven
// intent the old leader finished) commits only the closing entry.
func (c *Coordinator) ChangeP(ctx context.Context, newP int) error {
	if newP <= 0 {
		return fmt.Errorf("membership: p must be positive")
	}
	if newP != c.P() {
		c.setPendingP(newP)
		if c.commit != nil {
			if err := c.commit(proto.EntryIntent); err != nil {
				return err
			}
		}
	}
	err := c.changeP(ctx, newP)
	c.setPendingP(0)
	return c.commitAfter(err)
}

func (c *Coordinator) setPendingP(p int) {
	c.mu.Lock()
	c.pendingP = p
	c.mu.Unlock()
}

func (c *Coordinator) changeP(ctx context.Context, newP int) error {
	c.mu.Lock()
	oldP := c.p
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
	// (start-1/newP, start-1/oldP]. The drain routes by newP already
	// (ChangeP set pendingP), so the backend, once caught up, holds every
	// record it routed by oldP.
	if err := c.catchUp(); err != nil {
		return err
	}
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
	return c.commitAfter(c.setRingEnabled(ctx, k, enabled))
}

func (c *Coordinator) setRingEnabled(ctx context.Context, k int, enabled bool) error {
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
		if _, ok := c.ringOf[id]; ok && usableSpeed(s) {
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

// pushStored sends a node every backend record in its stored set. Its
// caller made the node's new range visible to routeBatch before, so the
// backend, once caught up, holds every record the drain routed by the
// old one.
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
	if err := c.catchUp(); err != nil {
		return err
	}
	repl := 1 / float64(p)
	var recs []pps.Encoded
	if arc.Length+repl >= 1 {
		recs = c.backend.InArc(0, 0) // lo == hi: the whole ring
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

// RegisterHandlers serves the member.* surface on d. Every call first
// asks lead for the coordinator that answers it: a standalone server
// returns its own, a replica returns its leader coordinator or a
// NotLeaderError whose "leader=<addr>" hint the caller fails over on.
func RegisterHandlers(d *wire.Dispatcher, lead func() (*Coordinator, error)) {
	handle := func(method string, fn func(ctx context.Context, c *Coordinator, body wire.Body) (interface{}, error)) {
		d.Register(method, func(ctx context.Context, _ string, body wire.Body) (interface{}, error) {
			c, err := lead()
			if err != nil {
				return nil, err
			}
			return fn(ctx, c, body)
		})
	}
	handle(proto.MMemberView, func(_ context.Context, c *Coordinator, _ wire.Body) (interface{}, error) {
		return c.View(), nil
	})
	handle(proto.MMemberJoin, func(ctx context.Context, c *Coordinator, body wire.Body) (interface{}, error) {
		var req proto.JoinReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return c.Join(ctx, req.Addr, req.SpeedHint)
	})
	handle(proto.MMemberLeave, func(ctx context.Context, c *Coordinator, body wire.Body) (interface{}, error) {
		var req proto.LeaveReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return struct{}{}, c.Leave(ctx, ring.NodeID(req.ID))
	})
	handle(proto.MMemberSetP, func(ctx context.Context, c *Coordinator, body wire.Body) (interface{}, error) {
		var req proto.SetPReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return struct{}{}, c.ChangeP(ctx, req.P)
	})
	handle(proto.MMemberLoad, func(ctx context.Context, c *Coordinator, body wire.Body) (interface{}, error) {
		var req proto.LoadReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		recs, err := store.LoadFile(ctx, req.Path)
		if err != nil {
			return nil, err
		}
		if err := c.LoadCorpus(ctx, recs); err != nil {
			return nil, err
		}
		return proto.LoadResp{Records: len(recs)}, nil
	})
	handle(proto.MMemberHealth, func(_ context.Context, c *Coordinator, body wire.Body) (interface{}, error) {
		var req proto.HealthReport
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return c.ReportHealth(req)
	})
	handle(proto.MMemberIngest, func(ctx context.Context, c *Coordinator, body wire.Body) (interface{}, error) {
		var req proto.IngestReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		seq, err := c.IngestAppend(ctx, req.Records)
		if err != nil {
			return nil, err
		}
		return proto.IngestResp{Seq: seq, Drained: c.IngestDrained()}, nil
	})
	handle(proto.MMemberDrained, func(ctx context.Context, c *Coordinator, body wire.Body) (interface{}, error) {
		var req proto.DrainedReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		recs, err := c.drainedSince(ctx, req.After, req.Max)
		if err != nil {
			return nil, err
		}
		return proto.DrainedResp{Records: recs}, nil
	})
}
