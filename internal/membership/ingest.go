// Durable ingest: the coordinator's half of the internal/ingest
// pipeline. IngestAppend accepts records into the write-ahead log —
// acceptance means durability, not delivery — and StartIngest runs the
// consumer that drains the log to the p owning nodes.
//
// Routing happens per delivery attempt through ingestRoute, which reads
// the CURRENT topology and epoch under the coordinator lock. That one
// property carries all of the pipeline's fault tolerance on this side:
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
// Replicated coordinators (replica.go) share the WAL and replicate the
// drained watermark in ControlState; a new leader calls StartIngest
// with the restored watermark and resumes — re-delivering at most the
// un-replicated tail, which node-side dedup absorbs.
package membership

import (
	"context"
	"strconv"
	"time"

	"roar/internal/ingest"
	"roar/internal/pps"
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
	// OnAdvance, when set, observes every drained-watermark advance
	// (the replica layer uses it to schedule watermark replication).
	// Called from the drain goroutine; must not block.
	OnAdvance func(drained uint64)
	// Logf, when set, receives one line per delivery failure.
	Logf func(format string, args ...any)
	// After injects the backoff timer (tests). Nil means real time.
	After func(time.Duration) <-chan time.Time
}

// IngestEnabled reports whether this coordinator has a WAL attached.
func (c *Coordinator) IngestEnabled() bool { return c.wal != nil }

// IngestAppend durably accepts records: they are fsynced to the WAL and
// inserted into the backend before the call returns; delivery to the
// owning nodes happens asynchronously. Returns the WAL sequence of the
// last record — WaitIngestDrained on it blocks until delivery.
func (c *Coordinator) IngestAppend(ctx context.Context, recs []pps.Encoded) (uint64, error) {
	if c.wal == nil {
		return 0, errIngestDisabled
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	seq, err := c.wal.Append(recs...)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.backend.Insert(recs...)
	if seq > c.ingestSeq {
		c.ingestSeq = seq
	}
	c.mu.Unlock()
	return seq, nil
}

type ingestDisabledError struct{}

func (ingestDisabledError) Error() string { return "membership: ingest disabled (no WAL configured)" }

// WireErrorCode implements wire.ErrorCoder so remote producers can
// branch on the condition.
func (ingestDisabledError) WireErrorCode() string { return "ingest-disabled" }

var errIngestDisabled = ingestDisabledError{}

// StartIngest replays the WAL into the backend (restart recovery;
// backend inserts dedup by ID, so replaying records the backend already
// holds is a no-op) and starts the drain consumer from the given
// watermark bookkeeping. No-op without a WAL or when already started.
func (c *Coordinator) StartIngest(cfg IngestConfig) error {
	if c.wal == nil {
		return nil
	}
	var recs []pps.Encoded
	err := c.wal.Replay(0, func(seq uint64, rec pps.Encoded) bool {
		recs = append(recs, rec)
		return true
	})
	if err != nil {
		return err
	}
	last := c.wal.LastSeq()
	c.mu.Lock()
	if c.consumer != nil {
		c.mu.Unlock()
		return nil
	}
	c.backend.Insert(recs...)
	if last > c.ingestSeq {
		c.ingestSeq = last
	}
	from := c.ingestDrained
	cons := ingest.NewConsumer(c.wal, ingest.ConsumerConfig{
		Route:      c.ingestRoute,
		BatchSize:  cfg.Batch,
		MinBackoff: cfg.MinBackoff,
		MaxBackoff: cfg.MaxBackoff,
		Logf:       cfg.Logf,
		After:      cfg.After,
		OnAdvance: func(drained uint64) {
			c.mu.Lock()
			if drained > c.ingestDrained {
				c.ingestDrained = drained
			}
			c.mu.Unlock()
			if cfg.OnAdvance != nil {
				cfg.OnAdvance(drained)
			}
		},
	})
	c.consumer = cons
	c.mu.Unlock()
	cons.Start(from)
	return nil
}

// StopIngest halts the drain consumer (idempotent; the WAL itself stays
// open — it is owned by the caller that built it, and a replicated
// coordinator shares it across replica generations).
func (c *Coordinator) StopIngest() {
	c.mu.Lock()
	cons := c.consumer
	c.consumer = nil
	c.mu.Unlock()
	if cons != nil {
		cons.Stop()
	}
}

// ingestRoute resolves the CURRENT owners of one record: the holders of
// its replication arc on every enabled ring, with pushes fenced by the
// epoch the placement was read under. Called fresh on every delivery
// attempt (ingest.Route contract): the holders are looked up per record
// every time, only the per-node Target value is reused within an epoch.
func (c *Coordinator) ingestRoute(rec pps.Encoded) ([]ingest.Target, error) {
	pt := store.PointOf(rec.ID)
	c.mu.Lock()
	defer c.mu.Unlock()
	repl := ring.ReplicationArc(pt, c.p)
	if c.ingestTargets == nil || c.ingestTargetsEpoch != c.epoch {
		c.ingestTargets = make(map[ring.NodeID]ingestTarget)
		c.ingestTargetsEpoch = c.epoch
	}
	var targets []ingest.Target
	for k, r := range c.rings {
		if c.disabled[k] {
			continue
		}
		for _, id := range r.Holders(repl) {
			cl := c.clients[id]
			if cl == nil {
				continue
			}
			t, ok := c.ingestTargets[id]
			if !ok || t.cl != cl {
				t = newIngestTarget(id, cl, c.epoch)
				c.ingestTargets[id] = t
			}
			targets = append(targets, t.Target)
		}
	}
	if len(targets) == 0 {
		return nil, errNoIngestOwners
	}
	return targets, nil
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

var errNoIngestOwners = ingestNoOwnersError{}

type ingestNoOwnersError struct{}

func (ingestNoOwnersError) Error() string {
	return "membership: no live owners for record (cluster empty or all rings disabled)"
}

// nodeKey renders a stable per-node ack key for the consumer. Node IDs
// are never reused (nextID only grows), so the numeric ID is stable
// across topology changes.
func nodeKey(id ring.NodeID) string {
	return "node-" + strconv.Itoa(int(id))
}

// IngestSeq returns the last accepted (durable) WAL sequence.
func (c *Coordinator) IngestSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ingestSeq
}

// IngestDrained returns the delivery watermark: every accepted record
// with sequence <= IngestDrained has reached all of its owners.
func (c *Coordinator) IngestDrained() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ingestDrained
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
