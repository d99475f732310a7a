// Durable ingest: the coordinator's half of the internal/ingest
// pipeline. IngestAppend accepts records into the write-ahead log —
// acceptance means durability, not delivery — and StartIngest runs the
// consumer that drains it to the p owning nodes. The log is the only way
// a record enters the system (LoadCorpus appends to it too), and the
// only source of the backend: a push catches the backend up from it
// (catchUp) after the topology it pushes for is visible to routeBatch,
// so any record the drain routed by the topology before is in what the
// push reads.
//
// Routing happens once per delivery attempt through routeBatch, which
// reads the CURRENT topology and epoch for the whole batch under one
// hold of the coordinator lock. That one property carries all of the
// pipeline's fault tolerance on this side:
//
//   - A node that dies mid-drain stalls the batch (its push keeps
//     failing, the batch keeps retrying); the moment the node is
//     decommissioned its arc belongs to other nodes, the next attempt
//     routes there, and the WAL replays the affected records into the
//     replacements. No special replay code path exists — replay IS the
//     retry loop against the new topology.
//   - Pushes are fenced with the epoch the route was computed under, so
//     a push racing a reconfiguration is rejected (stale-epoch) instead
//     of landing on a node that no longer owns the record, and the
//     retry re-routes under the new epoch.
//
// Replicated coordinators (replica.go) open the log directory the
// replicas share only while they lead, and replicate the drained
// watermark in ControlState; a new leader calls StartIngest with the
// restored watermark and resumes — re-delivering at most the
// un-replicated tail, which node-side dedup absorbs — and reads the log
// into its backend at its first push, like any coordinator.
package membership

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"roar/internal/ingest"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/store"
	"roar/internal/wire"
)

// IngestConfig tunes the drain consumer. Zero values take the
// ingest.ConsumerConfig defaults.
type IngestConfig struct {
	// Batch caps records per delivery round.
	Batch int
	// MinBackoff / MaxBackoff bound the delivery retry delay.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Logf, when set, receives one line per delivery failure.
	Logf func(format string, args ...any)
}

// IngestAppend durably accepts records: they are fsynced to the WAL
// before the call returns; delivery to the owning nodes happens
// asynchronously. The log keeps the records' bytes, so the caller may
// reuse recs and their bytes once the call returns. Returns the WAL
// sequence of the last record — WaitIngestDrained on it blocks until
// delivery. A replicated coordinator commits before it acknowledges: a
// deposed leader's accepted batch errors out, the producer retries on
// the new leader, and record-ID dedup absorbs the duplicate append.
func (c *Coordinator) IngestAppend(ctx context.Context, recs []pps.Encoded) (uint64, error) {
	if c.wal == nil {
		return 0, errIngestDisabled
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if len(recs) == 0 {
		// A drain poll (pps-client -put -wait): answered from the
		// watermarks, with no WAL write and no replicated commit.
		return c.IngestSeq(), nil
	}
	seq, err := c.wal.Append(recs...)
	if err != nil {
		return 0, err
	}
	if err := c.commitState(); err != nil {
		return 0, err
	}
	return seq, nil
}

var errIngestDisabled = errors.New("membership: ingest disabled (no WAL configured)")

// catchUpBatch is how many records catchUp inserts into the backend at
// once.
const catchUpBatch = 1024

// catchUp reads the log's records past applied, up to its durable end,
// into the backend. A push calls it after the topology it pushes for is
// visible to routeBatch and before it reads the backend: the drain
// routes only durable records, so every record it routed by the
// topology before has a sequence at or below the durable end read here,
// and the push carries it to the holders that topology lacked. A read
// error fails the push. No-op without a WAL.
func (c *Coordinator) catchUp() error {
	if c.wal == nil {
		return nil
	}
	c.catchMu.Lock()
	defer c.catchMu.Unlock()
	batch := make([]pps.Encoded, 0, catchUpBatch)
	var last uint64
	insert := func() {
		c.backend.Insert(batch...)
		c.applied = last
		batch = batch[:0]
	}
	err := c.wal.Replay(c.applied, func(seq uint64, rec pps.Encoded) bool {
		batch, last = append(batch, rec), seq
		if len(batch) == catchUpBatch {
			insert()
		}
		return true
	})
	if len(batch) > 0 {
		insert()
	}
	if err != nil {
		return fmt.Errorf("membership: reading the log into the backend: %w", err)
	}
	return nil
}

// StartIngest starts the drain consumer from the restored drained
// watermark. No-op without a WAL or when already started.
func (c *Coordinator) StartIngest(cfg IngestConfig) {
	if c.wal == nil {
		return
	}
	c.mu.Lock()
	if c.consumer != nil {
		c.mu.Unlock()
		return
	}
	from := c.ingestDrained
	cons := ingest.NewConsumer(c.wal, ingest.ConsumerConfig{
		Route:      c.routeBatch,
		BatchSize:  cfg.Batch,
		MinBackoff: cfg.MinBackoff,
		MaxBackoff: cfg.MaxBackoff,
		Logf:       cfg.Logf,
		Clock:      c.cfg.Clock,
		OnAdvance: func(drained uint64) {
			c.mu.Lock()
			if drained > c.ingestDrained {
				c.ingestDrained = drained
			}
			c.mu.Unlock()
		},
	})
	c.consumer = cons
	c.mu.Unlock()
	cons.Start(from)
}

// StopIngest halts the drain consumer (idempotent; the WAL stays open
// until Close).
func (c *Coordinator) StopIngest() {
	c.mu.Lock()
	cons := c.consumer
	c.consumer = nil
	c.mu.Unlock()
	if cons != nil {
		cons.Stop()
	}
}

// routeBatch resolves the CURRENT owners of every record of a batch
// under one hold of c.mu: the nodes whose stored spans hold its id under
// the published layout and, while a move stages one, the next, with
// pushes fenced by the epoch read once for the batch. Called fresh on
// every delivery attempt (ingest.Route contract); only the holder table
// and the per-node Target values are reused, while the epoch and the
// staged layout stay.
func (c *Coordinator) routeBatch(dst []ingest.Placement, batch []pps.Encoded) ([]ingest.Placement, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.routes == nil || c.routesEpoch != c.epoch || c.routesNext != c.next {
		// A move's pushes may read the backend before a record the
		// drain routes while it stages: that record reaches the holders
		// the move adds from here.
		c.routes = newRoutes(&c.layout, c.next)
		c.ingestTargets = make(map[ring.NodeID]ingestTarget)
		c.routesEpoch, c.routesNext = c.epoch, c.next
	}
	for i, rec := range batch {
		n := len(dst)
		for _, id := range c.routes.holders(rec.ID) {
			cl := c.clients[id]
			if cl == nil {
				continue
			}
			t, ok := c.ingestTargets[id]
			if !ok || t.cl != cl {
				t = newIngestTarget(id, cl, c.epoch)
				c.ingestTargets[id] = t
			}
			dst = append(dst, ingest.Placement{Rec: i, Target: t.Target})
		}
		if len(dst) == n {
			return dst, fmt.Errorf("membership: no live owners for record %d (cluster empty or all rings disabled)", rec.ID)
		}
	}
	return dst, nil
}

// routes is the holder table of one or two layouts: the ring cut at
// every id where some node's stored spans begin or end, each piece with
// the nodes that hold it.
type routes struct {
	cuts []uint64      // ascending; cuts[0] == 0
	at   []int         // piece i's holders are ids[at[i]:at[i+1]]
	ids  []ring.NodeID // without repeats within a piece
}

// newRoutes builds the holder table of the non-nil layouts ls.
func newRoutes(ls ...*layout) *routes {
	type held struct {
		id    ring.NodeID
		spans []store.Span
	}
	var nodes []held
	rt := &routes{cuts: []uint64{0}}
	for _, l := range ls {
		if l == nil {
			continue
		}
		for _, r := range l.rings {
			for _, id := range r.IDs() {
				spans := l.stored(id)
				nodes = append(nodes, held{id, spans})
				for _, sp := range spans {
					rt.cuts = append(rt.cuts, sp.First)
					if sp.Last != math.MaxUint64 {
						rt.cuts = append(rt.cuts, sp.Last+1)
					}
				}
			}
		}
	}
	slices.Sort(rt.cuts)
	rt.cuts = slices.Compact(rt.cuts)
	for _, cut := range rt.cuts {
		from := len(rt.ids)
		rt.at = append(rt.at, from)
		for _, h := range nodes {
			if slices.ContainsFunc(h.spans, func(sp store.Span) bool { return sp.First <= cut && cut <= sp.Last }) &&
				!slices.Contains(rt.ids[from:], h.id) {
				rt.ids = append(rt.ids, h.id)
			}
		}
	}
	rt.at = append(rt.at, len(rt.ids))
	return rt
}

// holders returns the nodes that hold id; the table's, not the caller's.
func (rt *routes) holders(id uint64) []ring.NodeID {
	i, found := slices.BinarySearch(rt.cuts, id)
	if !found {
		i--
	}
	return rt.ids[rt.at[i]:rt.at[i+1]]
}

// ingestTarget is the delivery target of one node's client under one
// epoch.
type ingestTarget struct {
	ingest.Target
	cl *wire.Client
}

func newIngestTarget(id ring.NodeID, cl *wire.Client, epoch int) ingestTarget {
	return ingestTarget{cl: cl, Target: ingest.Target{
		Key: nodeKey(id),
		Push: func(ctx context.Context, recs []pps.Encoded) error {
			return putRecords(ctx, cl, epoch, recs)
		},
	}}
}

// nodeKey renders a stable per-node ack key for the consumer. Node IDs
// are never reused (nextID only grows), so the numeric ID is stable
// across topology changes.
func nodeKey(id ring.NodeID) string {
	return "node-" + strconv.Itoa(int(id))
}

// IngestSeq returns the last accepted (durable) WAL sequence, 0
// without a WAL. It takes no coordinator lock: views call it under c.mu,
// and the lock order is c.mu before the WAL's.
func (c *Coordinator) IngestSeq() uint64 {
	if c.wal == nil {
		return 0
	}
	return c.wal.DurableSeq()
}

// IngestDrained returns the delivery watermark: every accepted record
// with sequence <= IngestDrained has reached all of its owners.
func (c *Coordinator) IngestDrained() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ingestDrained
}

// drainedSince returns the log's records with sequence in (after,
// drained], at most max of them and never more than proto.MaxDrained,
// in sequence order: what member.drained answers a frontend that brings
// its cached answers forward. A negative max is refused. They are read
// through one tail reader (ingest.Tail) that stays where its last read
// ended and re-positions at where a recent read ended, so each frontend
// following the drain reads about the frames it asks for. The records
// are the caller's to keep.
func (c *Coordinator) drainedSince(ctx context.Context, after uint64, max int) ([]pps.Encoded, error) {
	if c.wal == nil {
		return nil, errIngestDisabled
	}
	if max < 0 {
		return nil, fmt.Errorf("membership: drained records: negative max %d", max)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	max = min(max, proto.MaxDrained)
	drained := c.IngestDrained()
	if drained <= after || max == 0 {
		return nil, nil
	}
	n := int(min(drained-after, uint64(max)))
	recs := make([]pps.Encoded, 0, n)
	c.tailMu.Lock()
	defer c.tailMu.Unlock()
	if c.tail == nil {
		c.tail = c.wal.Tail()
	}
	err := c.tail.Read(after, n, func(_ uint64, rec pps.Encoded) bool {
		rec.Nonce, rec.Filter = pps.CopyMetadata(rec.Nonce, rec.Filter)
		recs = append(recs, rec)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("membership: reading drained records after %d: %w", after, err)
	}
	return recs, nil
}

// WaitIngestDrained blocks until the delivery watermark reaches seq or
// ctx ends.
func (c *Coordinator) WaitIngestDrained(ctx context.Context, seq uint64) error {
	c.mu.Lock()
	cons := c.consumer
	c.mu.Unlock()
	if cons == nil {
		return errIngestDisabled
	}
	return cons.WaitDrained(ctx, seq)
}
