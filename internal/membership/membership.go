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
// Every reconfiguration takes one path, move: stage the next layout,
// push what each node gains, then publish, trim and commit. So no
// published view names a range its node does not yet hold.
//
// One type serves every caller. The Coordinator owns the state machine
// and decides every commit point: move hands the resulting state to its
// commit hook after the trim, and a move that changes p commits its
// intent before the first push. A standalone coordinator has no hook and
// term 0. A
// Replica (replica.go) owns election and the decision register: it
// builds a coordinator when it wins term T, installs the hook with T,
// and followers apply committed snapshots without running one.
// RegisterHandlers serves the member.* surface for both.
package membership

import (
	"context"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sync"

	"roar/internal/clock"
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
	// Clock is the time source of the health aggregator, the autoscaler,
	// the drain's backoff and, through ReplicaConfig.Coordinator, the
	// replica's election and lease timers. Nil means clock.Real.
	Clock clock.Clock
}

const (
	// balanceThreshold is the load-difference fraction below which
	// neighbours stop balancing (§4.9: 10%).
	balanceThreshold = 0.10
	// putChunk bounds the records of one push RPC.
	putChunk = 2000
)

// layout is the topology a view publishes: each ring's node ranges, the
// powered-down rings and the partitioning level.
type layout struct {
	rings    []*ring.Ring
	disabled map[int]bool
	p        int
}

func (l *layout) clone() *layout {
	n := &layout{rings: make([]*ring.Ring, len(l.rings)), disabled: maps.Clone(l.disabled), p: l.p}
	for k, r := range l.rings {
		n.rings[k] = r.Clone()
	}
	return n
}

// ringOf returns the ring node id is on, or -1.
func (l *layout) ringOf(id ring.NodeID) int {
	for k, r := range l.rings {
		if r.Contains(id) {
			return k
		}
	}
	return -1
}

// stored returns the identifiers node id holds under l,
// store.StoredSpans of its range; none off an enabled ring.
func (l *layout) stored(id ring.NodeID) []store.Span {
	k := l.ringOf(id)
	if k < 0 || l.disabled[k] {
		return nil
	}
	a, _ := l.rings[k].Range(id)
	return store.StoredSpans(a, l.p)
}

// Coordinator is the membership server.
type Coordinator struct {
	cfg Config

	// moveMu runs one reconfiguration at a time (move).
	moveMu sync.Mutex

	mu sync.Mutex
	layout
	// next is the layout a move in progress moves to, nil when none.
	// routeBatch routes by it as well, so a record the drain delivers
	// while data moves also reaches the holders it is about to gain.
	next    *layout
	addrs   map[ring.NodeID]string
	speeds  map[ring.NodeID]float64 // capacity hints / reported speeds
	racks   map[ring.NodeID]string  // rack labels (§4.9.2)
	clients map[ring.NodeID]*wire.Client
	epoch   int
	nextID  ring.NodeID

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
	// routes are the holders of every id under the published layout and
	// next, and ingestTargets the delivery target routeBatch built for
	// each node, so the records of a batch share one key string and push
	// closure per node. Both hold for routesEpoch and routesNext; routeBatch
	// rebuilds them when the epoch or next moves.
	routes        *routes
	ingestTargets map[ring.NodeID]ingestTarget
	routesEpoch   int
	routesNext    *layout

	// Transfer accounting for the reconfiguration experiments.
	objectsPushed int64

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

// New builds a coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.P <= 0 {
		return nil, fmt.Errorf("membership: initial p must be positive")
	}
	if cfg.Rings <= 0 {
		cfg.Rings = 1
	}
	cfg.Clock = clock.Or(cfg.Clock)
	c := &Coordinator{
		cfg:     cfg,
		layout:  layout{disabled: map[int]bool{}, p: cfg.P},
		addrs:   map[ring.NodeID]string{},
		speeds:  map[ring.NodeID]float64{},
		racks:   map[ring.NodeID]string{},
		clients: map[ring.NodeID]*wire.Client{},
		backend: store.New(),
		health:  newHealthState(cfg.Health),
		wal:     cfg.WAL,
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

// JoinRack registers a node with a rack label: when possible it is
// placed adjacent to an existing node of the same rack, so replication
// pushes travel mostly intra-rack (§4.9.2's cross-sectional bandwidth
// optimisation). Falls back to hotspot placement when the rack is new.
// The node is loaded with its stored set before any view names it; a
// failed load publishes nothing and forgets the node.
func (c *Coordinator) JoinRack(ctx context.Context, addr string, speedHint float64, rack string) (proto.JoinResp, error) {
	if !usableSpeed(speedHint) {
		speedHint = 1
	}
	var resp proto.JoinResp
	err := c.move(ctx, func(next *layout) error {
		k, start, err := c.place(next, rack)
		if err != nil {
			return err
		}
		id := c.nextID
		if err := next.rings[k].Insert(id, start); err != nil {
			return fmt.Errorf("membership: inserting node: %w", err)
		}
		c.nextID++
		c.addrs[id] = addr
		c.speeds[id] = speedHint
		if rack != "" {
			c.racks[id] = rack
		}
		c.clients[id] = wire.NewClient(addr)
		resp = proto.JoinResp{ID: int(id), Ring: k, Start: float64(start)}
		return nil
	})
	if err != nil {
		return proto.JoinResp{}, err
	}
	return resp, nil
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

// place picks a joining node's ring and start point in l; a move's edit
// calls it under c.mu. A node whose rack already has a member splits
// that member's range. Any other node joins the ring with the least
// total capacity (§4.9: equal capacity per ring) and splits the range of
// its hottest node.
func (c *Coordinator) place(l *layout, rack string) (int, ring.Point, error) {
	if rack != "" {
		for id, rk := range c.racks {
			if k := l.ringOf(id); k >= 0 && rk == rack {
				a, err := l.rings[k].Range(id)
				if err != nil {
					return 0, 0, err
				}
				return k, a.Start.Add(a.Length / 2), nil
			}
		}
	}
	bestRing, bestCap := 0, -1.0
	for k, r := range l.rings {
		var cap float64
		for _, nid := range r.IDs() {
			cap += c.speeds[nid]
		}
		if bestCap < 0 || cap < bestCap {
			bestRing, bestCap = k, cap
		}
	}
	r := l.rings[bestRing]
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
// absorbed by the predecessor, which is pushed the arc it gains before
// the topology change becomes visible; then the node is forgotten and
// its client closed.
func (c *Coordinator) Leave(ctx context.Context, id ring.NodeID) error {
	return c.move(ctx, func(next *layout) error {
		k := next.ringOf(id)
		if k < 0 {
			return fmt.Errorf("membership: node %d unknown", id)
		}
		return next.rings[k].Remove(id)
	})
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
// Decreasing p (adding replicas) pushes every node the arc it gains
// before the new level is published; increasing p (dropping replicas)
// pushes nothing and trims every node after the publish.
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
	return c.move(ctx, func(next *layout) error {
		next.p = newP
		return nil
	})
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
	err = c.move(ctx, func(next *layout) error {
		for k, r := range next.rings {
			if next.disabled[k] || r.Len() < 2 {
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
					if err := r.SetStart(succ, sa.Start.Add(sa.Length*moveFrac)); err == nil {
						moves++
					}
				}
			}
		}
		return nil
	})
	return moves, err
}

// SetRingEnabled powers a ring on or off (§4.9.1 diurnal adaptation).
// Nodes keep their ranges while disabled, so re-enabling is cheap; the
// caller must ensure the remaining rings still hold all data (each ring
// holds a full copy, so any single enabled ring suffices). A returning
// ring's nodes are pushed their whole stored set, the records written
// while they were off included, before a view names them again.
func (c *Coordinator) SetRingEnabled(ctx context.Context, k int, enabled bool) error {
	return c.move(ctx, func(next *layout) error {
		if k < 0 || k >= len(next.rings) {
			return fmt.Errorf("membership: no ring %d", k)
		}
		if enabled {
			delete(next.disabled, k)
			return nil
		}
		on := 0
		for i, r := range next.rings {
			if !next.disabled[i] && r.Len() > 0 {
				on++
			}
		}
		if on <= 1 && !next.disabled[k] {
			return fmt.Errorf("membership: cannot disable the last ring")
		}
		next.disabled[k] = true
		return nil
	})
}

// ReportSpeeds folds frontend speed observations into placement
// decisions (§4.9: the membership server downloads statistics from the
// front-ends).
func (c *Coordinator) ReportSpeeds(speeds map[ring.NodeID]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, s := range speeds {
		if _, ok := c.addrs[id]; ok && usableSpeed(s) {
			c.speeds[id] = s
		}
	}
}

// move runs one reconfiguration at a time, the only way the layout
// changes. Under c.mu, edit turns a copy of the published layout into
// the next one (registering any node it adds). Then move
//
//  1. stages it: from here routeBatch routes to both layouts;
//  2. commits an intent if p changes;
//  3. catches the backend up: it then holds every record the drain
//     routed by the published layout alone;
//  4. pushes each node what it gains (pushGains);
//  5. publishes the layout under a new epoch, forgetting dropped nodes;
//  6. trims every node whose stored set shrank (a powered-down ring
//     keeps its data);
//  7. commits.
//
// A failed step publishes nothing and forgets the nodes edit added; a
// layout edit leaves as it was only commits.
func (c *Coordinator) move(ctx context.Context, edit func(next *layout) error) error {
	c.moveMu.Lock()
	defer c.moveMu.Unlock()
	c.mu.Lock()
	pub, next := c.layout, c.layout.clone()
	err := edit(next)
	staged := err == nil && !reflect.DeepEqual(next, &pub)
	if staged {
		c.next = next
	}
	c.mu.Unlock()
	if staged {
		err = c.pushGains(ctx, &pub, next)
		c.mu.Lock()
		c.next = nil
		if err == nil {
			c.layout = *next
			c.epoch++
			c.forgetLocked(&pub, next)
		}
		c.mu.Unlock()
	}
	if err != nil {
		c.mu.Lock()
		c.forgetLocked(next, &pub)
		c.mu.Unlock()
		return err
	}
	for k, r := range next.rings {
		for _, id := range r.IDs() {
			if err == nil && !next.disabled[k] && len(store.Minus(pub.stored(id), next.stored(id))) > 0 {
				a, _ := r.Range(id)
				err = c.sendRetain(ctx, id, a, next.p)
			}
		}
	}
	// The layout is published: it commits even if a trim failed.
	if cerr := c.commitState(); cerr != nil {
		return cerr
	}
	return err
}

// pushGains runs move's steps 2 to 4 for the staged layout next. A node
// gains one arc, two, or its whole stored set if pub does not hold it.
func (c *Coordinator) pushGains(ctx context.Context, pub, next *layout) error {
	if next.p != pub.p && c.commit != nil {
		if err := c.commit(proto.EntryIntent); err != nil {
			return err
		}
	}
	if err := c.catchUp(); err != nil {
		return err
	}
	for _, r := range next.rings {
		for _, id := range r.IDs() {
			// Routing gives a node exactly the ids it stores, so it
			// gains what it stores under next and did not under pub.
			gain := store.Minus(next.stored(id), pub.stored(id))
			if len(gain) == 0 {
				continue
			}
			if err := c.pushRecords(ctx, id, c.backend.InSpans(gain)); err != nil {
				return err
			}
		}
	}
	return nil
}

// forgetLocked drops every node from holds and to does not: its address,
// speed, rack and health evidence, and its client, which it closes.
func (c *Coordinator) forgetLocked(from, to *layout) {
	for _, r := range from.rings {
		for _, id := range r.IDs() {
			if to.ringOf(id) >= 0 {
				continue
			}
			if cl := c.clients[id]; cl != nil {
				cl.Close()
			}
			delete(c.clients, id)
			delete(c.addrs, id)
			delete(c.speeds, id)
			delete(c.racks, id)
			c.health.forget(id)
		}
	}
}

// pushRecords sends a node recs, fenced by the published epoch.
func (c *Coordinator) pushRecords(ctx context.Context, id ring.NodeID, recs []pps.Encoded) error {
	c.mu.Lock()
	cl, epoch := c.clients[id], c.epoch
	c.mu.Unlock()
	for chunk := range slices.Chunk(recs, putChunk) {
		if err := putRecords(ctx, cl, epoch, chunk); err != nil {
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

// sendRetain tells a node its published range and p so it trims excess
// replicas. It carries the publishing epoch so the node's fence
// advances with the placement.
func (c *Coordinator) sendRetain(ctx context.Context, id ring.NodeID, arc ring.Arc, p int) error {
	c.mu.Lock()
	cl, epoch := c.clients[id], c.epoch
	c.mu.Unlock()
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
