// Control-state snapshot and restore: the bridge between the live
// Coordinator and the replicated decisions. Every log entry carries
// a full ControlState (replicate.go in internal/proto), so a replica
// can always reconstruct a working coordinator from its single latest
// committed entry — ExportState and NewFromState are exact inverses
// over the replicable state.
//
// Soft state deliberately excluded from the snapshot: failure-evidence
// scores (only the quarantine *verdicts* travel; a restored node starts
// at exactly the quarantine threshold, so recovery evidence must drain
// it just like on the old leader), speed EWMAs in flight, per-frontend
// sequence tracking, and the transfer counters. All of it regenerates
// from the frontends' next health reports.
package membership

import (
	"fmt"
	"sort"
	"time"

	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/wire"
)

// ExportState snapshots the full replicable control state: topology,
// partitioning level and any pending change of it (the staged p), ring
// power, node records, quarantine verdicts.
func (c *Coordinator) ExportState() proto.ControlState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := proto.ControlState{
		Epoch:         c.epoch,
		P:             c.p,
		NextID:        int(c.nextID),
		Rings:         len(c.rings),
		IngestDrained: c.ingestDrained,
	}
	if c.next != nil && c.next.p != c.p {
		st.PendingP = c.next.p
	}
	for k := range c.rings {
		if c.disabled[k] {
			st.Disabled = append(st.Disabled, k)
		}
	}
	sort.Ints(st.Disabled)
	// Lock order: c.mu then health.mu, as established by viewLocked.
	c.health.mu.Lock()
	quar := make(map[ring.NodeID]time.Time, len(c.health.quarantined))
	for id, at := range c.health.quarantined {
		quar[id] = at
	}
	c.health.mu.Unlock()
	for k, r := range c.rings {
		for _, nr := range r.Nodes() {
			ns := proto.NodeState{
				ID:    int(nr.ID),
				Ring:  k,
				Start: float64(nr.Start),
				Addr:  c.addrs[nr.ID],
				Speed: c.speeds[nr.ID],
				Rack:  c.racks[nr.ID],
			}
			if at, ok := quar[nr.ID]; ok {
				ns.Quarantined = true
				ns.QuarantinedAtUnixNanos = at.UnixNano()
			}
			st.Nodes = append(st.Nodes, ns)
		}
	}
	return st
}

// NewFromState builds a live coordinator from a replicated snapshot —
// the takeover path of a freshly elected leader. cfg supplies the
// local, non-replicated configuration (tuning, health thresholds, the
// leader's WAL, which the first push reads into the backend); the
// snapshot supplies everything replicable.
func NewFromState(cfg Config, st proto.ControlState) (*Coordinator, error) {
	if cfg.P <= 0 {
		cfg.P = st.P
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.rings) < st.Rings {
		c.rings = append(c.rings, ring.New())
	}
	if st.P > 0 {
		c.p = st.P
	}
	c.epoch = st.Epoch
	c.nextID = ring.NodeID(st.NextID)
	c.ingestDrained = st.IngestDrained
	for _, k := range st.Disabled {
		if k >= 0 && k < len(c.rings) {
			c.disabled[k] = true
		}
	}
	c.health.mu.Lock()
	defer c.health.mu.Unlock()
	for _, n := range st.Nodes {
		id := ring.NodeID(n.ID)
		if n.Ring < 0 || n.Ring >= len(c.rings) {
			return nil, fmt.Errorf("membership: snapshot node %d names ring %d of %d", n.ID, n.Ring, len(c.rings))
		}
		if err := c.rings[n.Ring].Insert(id, ring.Norm(n.Start)); err != nil {
			return nil, fmt.Errorf("membership: restoring node %d: %w", n.ID, err)
		}
		c.addrs[id] = n.Addr
		if n.Speed > 0 {
			c.speeds[id] = n.Speed
		}
		if n.Rack != "" {
			c.racks[id] = n.Rack
		}
		c.clients[id] = wire.NewClient(n.Addr)
		if n.Quarantined {
			c.health.quarantined[id] = time.Unix(0, n.QuarantinedAtUnixNanos)
			// Seed the evidence score at the threshold: recovery evidence
			// must drain it exactly as it would have on the old leader.
			c.health.scores[id] = c.health.cfg.QuarantineThreshold
		}
	}
	if st.PendingP > 0 && st.PendingP != c.p {
		// Route by the p the old leader staged until the re-drive moves.
		c.next = c.layout.clone()
		c.next.p = st.PendingP
	}
	return c, nil
}

// SetEpochFloor raises the view epoch to at least e (no-op when already
// past it). A new leader calls it with the committed epoch + 1 so its
// first published view supersedes everything the old leader shipped,
// even before any real state change.
func (c *Coordinator) SetEpochFloor(e int) {
	c.mu.Lock()
	if c.epoch < e {
		c.epoch = e
	}
	c.mu.Unlock()
}
