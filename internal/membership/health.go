// Membership-side health aggregation: the coordinator folds the
// periodic per-frontend HealthReports (each node's failed and answered
// legs and probes, queue depths) into one failure-evidence score per
// node, quarantines nodes whose score crosses a threshold by publishing
// views with the node demoted from scheduling — NOT dropped from
// storage, so recovery is a view flip rather than a data transfer — and
// un-quarantines them when answers drain the score back to zero.
//
// This closes the loop §5 assumes: a single frontend's timeout never
// redistributes a node's range (expensive and irreversible). Failure
// reaches the coordinator only as ReportHealth evidence; the actual
// topology change — Decommission — is reserved for nodes that are
// genuinely gone.
package membership

import (
	"sort"
	"sync"
	"time"

	"roar/internal/proto"
	"roar/internal/ring"
)

// HealthConfig tunes the failure/overload control loop.
type HealthConfig struct {
	// QuarantineThreshold is the evidence score at which a node is
	// demoted from scheduling. Each failed leg or probe a frontend
	// reports adds 1 and each answer subtracts ½, at most 2 per report.
	// Default 3 — e.g. three frontends each seeing one failure in an
	// interval, or one frontend seeing failures across three.
	QuarantineThreshold float64
}

const (
	// scoreCapFactor × QuarantineThreshold bounds the score, so a long
	// outage cannot make recovery arbitrarily slow.
	scoreCapFactor = 2.0
	// answerWeight is what one answered leg or probe subtracts, and
	// maxAnswersPerReport caps how many of a report's answers count: a
	// busy interval must not bank unbounded goodwill against the next
	// failures.
	answerWeight        = 0.5
	maxAnswersPerReport = 4
	// A quarantined node is re-admitted once answers drain its score to
	// zero: all the accumulated evidence, which is the hysteresis
	// against flapping.
	recoverScore = 0
	// maxQuarantineFraction refuses to quarantine beyond this fraction
	// of the serving nodes (correlated slowness means overload, not
	// failure — quarantining everyone would turn congestion into an
	// outage).
	maxQuarantineFraction = 0.5
)

func (hc HealthConfig) withDefaults() HealthConfig {
	if hc.QuarantineThreshold <= 0 {
		hc.QuarantineThreshold = 3
	}
	return hc
}

// healthState is the aggregator's bookkeeping, separate from the
// topology mutex so report floods never contend with view pushes.
type healthState struct {
	mu          sync.Mutex
	cfg         HealthConfig
	scores      map[ring.NodeID]float64
	quarantined map[ring.NodeID]time.Time // node -> quarantine entry time
	feSeq       map[string]uint64         // per-frontend last report seq
	shedTotal   int64                     // cumulative PriorityLow sheds fleet-wide

	// Autoscale telemetry (the extension fields of HealthReport):
	// cumulative counters the controller differentiates per tick, plus
	// latest-value gauges.
	shedNormalTotal  int64                 // queue-timeout rejections fleet-wide
	hedgeDeniedTotal int64                 // hedge-budget denials fleet-wide
	queueWaitP99     map[string]int64      // per-frontend admission-wait p99 gauge (ns)
	queueWaitAt      map[string]time.Time  // when each frontend's gauge last refreshed
	depths           map[ring.NodeID]int   // last reported queue depth per node
	latP99           map[ring.NodeID]int64 // last reported latency p99 per node (ns)
}

// feGaugeStaleness expires a frontend's queue-wait gauge when it stops
// reporting (crashed or decommissioned FE): a last-writer-wins gauge
// with no owner would hold its final value forever and bias pressure.
const feGaugeStaleness = time.Minute

func newHealthState(cfg HealthConfig) *healthState {
	return &healthState{
		cfg:          cfg.withDefaults(),
		scores:       map[ring.NodeID]float64{},
		quarantined:  map[ring.NodeID]time.Time{},
		feSeq:        map[string]uint64{},
		queueWaitP99: map[string]int64{},
		queueWaitAt:  map[string]time.Time{},
		depths:       map[ring.NodeID]int{},
		latP99:       map[ring.NodeID]int64{},
	}
}

// adjustLocked applies an evidence delta and returns true when the
// node's quarantine status flipped. total is the number of serving
// nodes, for the max-fraction guard; now stamps a quarantine entry.
func (h *healthState) adjustLocked(id ring.NodeID, delta float64, total int, now time.Time) (flipped bool) {
	s := h.scores[id] + delta
	if s < 0 {
		s = 0
	}
	if limit := scoreCapFactor * h.cfg.QuarantineThreshold; s > limit {
		s = limit
	}
	h.scores[id] = s
	_, inQ := h.quarantined[id]
	switch {
	case !inQ && s >= h.cfg.QuarantineThreshold:
		if float64(len(h.quarantined)+1) > maxQuarantineFraction*float64(total) {
			return false // refuse: too much of the cluster already demoted
		}
		h.quarantined[id] = now
		return true
	case inQ && s <= recoverScore:
		delete(h.quarantined, id)
		return true
	}
	return false
}

func (h *healthState) forget(id ring.NodeID) {
	h.mu.Lock()
	delete(h.scores, id)
	delete(h.quarantined, id)
	delete(h.depths, id)
	delete(h.latP99, id)
	h.mu.Unlock()
}

// serving returns the nodes on enabled rings: the ones views publish,
// whose evidence ReportHealth folds, and whose count bounds quarantine.
func (c *Coordinator) serving() map[ring.NodeID]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[ring.NodeID]bool, len(c.addrs))
	for k, r := range c.rings {
		if !c.disabled[k] {
			for _, id := range r.IDs() {
				out[id] = true
			}
		}
	}
	return out
}

// ReportHealth folds one frontend's observation deltas into the
// per-node evidence scores, applies any quarantine transitions (each
// bumps the view epoch), and answers with the current epoch so the
// frontend can re-pull the view immediately when it is stale. Only a
// report that moved the epoch commits: most reports flip nothing.
func (c *Coordinator) ReportHealth(rep proto.HealthReport) (proto.HealthResp, error) {
	serving := c.serving()

	h := c.health
	h.mu.Lock()
	if rep.FE != "" && rep.Seq != 0 {
		// Only an exact sequence repeat is a duplicate (an at-most-once
		// sender can re-deliver just its last report). A LOWER sequence
		// means the frontend restarted and its counter began again at 1
		// — its evidence must keep flowing, not be silenced until the
		// new counter outruns the old incarnation's.
		if last, ok := h.feSeq[rep.FE]; ok && rep.Seq == last {
			h.mu.Unlock()
			return proto.HealthResp{Epoch: c.Epoch()}, nil
		}
		h.feSeq[rep.FE] = rep.Seq
	}
	h.shedTotal += int64(rep.Shed)
	h.shedNormalTotal += int64(rep.ShedNormal)
	h.hedgeDeniedTotal += int64(rep.HedgesDenied)
	now := c.cfg.Clock.Now()
	if rep.FE != "" {
		h.queueWaitP99[rep.FE] = rep.QueueP99Nanos
		h.queueWaitAt[rep.FE] = now
	}
	var flips int
	speeds := map[ring.NodeID]float64{}
	for _, nh := range rep.Nodes {
		id := ring.NodeID(nh.ID)
		if !serving[id] {
			continue
		}
		if nh.Speed > 0 {
			speeds[id] = nh.Speed
		}
		h.depths[id] = nh.QueueDepth
		if nh.LatP99Nanos > 0 {
			h.latP99[id] = nh.LatP99Nanos
		}
		delta := float64(nh.Fails) - answerWeight*float64(min(nh.OKs, maxAnswersPerReport))
		if delta != 0 || h.scores[id] != 0 {
			if h.adjustLocked(id, delta, len(serving), now) {
				flips++
			}
		}
	}
	h.mu.Unlock()

	if len(speeds) > 0 {
		c.ReportSpeeds(speeds)
	}
	if flips > 0 {
		c.mu.Lock()
		c.epoch++
		c.mu.Unlock()
		if err := c.commitState(); err != nil {
			return proto.HealthResp{}, err
		}
	}
	return proto.HealthResp{Epoch: c.Epoch()}, nil
}

// Quarantined returns the node ids currently demoted from scheduling,
// sorted ascending.
func (c *Coordinator) Quarantined() []int {
	c.health.mu.Lock()
	out := make([]int, 0, len(c.health.quarantined))
	for id := range c.health.quarantined {
		out = append(out, int(id))
	}
	c.health.mu.Unlock()
	sort.Ints(out)
	return out
}

// HealthScore exposes a node's current evidence score (tests,
// operational introspection).
func (c *Coordinator) HealthScore(id ring.NodeID) float64 {
	c.health.mu.Lock()
	defer c.health.mu.Unlock()
	return c.health.scores[id]
}

// QuarantineInfo names one quarantined node and when it entered
// quarantine.
type QuarantineInfo struct {
	ID    ring.NodeID
	Since time.Time
}

// FleetPressure is the aggregator's capacity-planning snapshot: the
// cumulative overload counters the elasticity controller differentiates
// per tick, plus the latest load gauges. Counters only ever grow (until
// coordinator restart); gauges are last-writer-wins per frontend/node.
type FleetPressure struct {
	ShedLow     int64 // cumulative PriorityLow sheds (ErrShed)
	ShedNormal  int64 // cumulative queue-timeout rejections (ErrOverloaded)
	HedgeDenied int64 // cumulative hedge-budget denials

	MeanQueueDepth float64       // mean last-reported depth across schedulable members
	QueueWaitP99   time.Duration // max admission-wait p99 across frontends
	NodeLatP99     time.Duration // max per-node sub-query latency p99 digest

	Quarantined []QuarantineInfo // sorted by node id
}

// FleetPressure snapshots the capacity-planning telemetry. The load
// gauges (depth, latency) count only schedulable nodes — on an enabled
// ring and not quarantined — because the others receive no traffic, so
// their last-written gauge values are frozen history: a quarantined
// node's final latency digest or a dark ring's idle depths would bias
// pressure indefinitely. Per-frontend gauges expire when the frontend
// stops reporting.
func (c *Coordinator) FleetPressure() FleetPressure {
	schedulable := c.serving()

	h := c.health
	h.mu.Lock()
	defer h.mu.Unlock()
	now := c.cfg.Clock.Now()
	fp := FleetPressure{
		ShedLow:     h.shedTotal,
		ShedNormal:  h.shedNormalTotal,
		HedgeDenied: h.hedgeDeniedTotal,
	}
	var depthSum, depthN int
	for id, d := range h.depths {
		if !schedulable[id] {
			continue
		}
		if _, q := h.quarantined[id]; q {
			continue
		}
		depthSum += d
		depthN++
	}
	if depthN > 0 {
		fp.MeanQueueDepth = float64(depthSum) / float64(depthN)
	}
	for fe, ns := range h.queueWaitP99 {
		if now.Sub(h.queueWaitAt[fe]) > feGaugeStaleness {
			continue
		}
		if d := time.Duration(ns); d > fp.QueueWaitP99 {
			fp.QueueWaitP99 = d
		}
	}
	for id, ns := range h.latP99 {
		if !schedulable[id] {
			continue
		}
		if _, q := h.quarantined[id]; q {
			continue
		}
		if d := time.Duration(ns); d > fp.NodeLatP99 {
			fp.NodeLatP99 = d
		}
	}
	for id, since := range h.quarantined {
		fp.Quarantined = append(fp.Quarantined, QuarantineInfo{ID: id, Since: since})
	}
	sort.Slice(fp.Quarantined, func(a, b int) bool { return fp.Quarantined[a].ID < fp.Quarantined[b].ID })
	return fp
}

// Epoch returns the current view epoch.
func (c *Coordinator) Epoch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}
