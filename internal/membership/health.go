// Membership-side health aggregation: the coordinator folds the
// periodic per-frontend HealthReports (suspicion events, probe
// outcomes, queue depths) into one failure-evidence score per node,
// quarantines nodes whose score crosses a threshold by publishing views
// with the node demoted from scheduling — NOT dropped from storage, so
// recovery is a view flip rather than a data transfer — and
// un-quarantines them when recovery evidence (successful probes)
// drains the score back down.
//
// This closes the loop §5 assumes: the seed treated a frontend Failed
// report as a one-shot hint that immediately redistributed the node's
// range (expensive, irreversible, and triggered by a single frontend's
// timeout). Now HandleFailure is just one evidence input to the
// aggregator; the actual topology change — Decommission — is reserved
// for nodes that are genuinely gone.
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
	// demoted from scheduling. Each suspicion event reported by a
	// frontend adds 1, each failed recovery probe 0.5; successful
	// probes and real sub-query completions subtract. Default 3 — e.g.
	// three frontends suspecting in one interval, or one frontend
	// suspecting across three.
	QuarantineThreshold float64
	// RecoverThreshold is the score at or below which a quarantined
	// node is re-admitted to scheduling. Default 0: recovery evidence
	// must fully drain the accumulated suspicion (hysteresis against
	// flapping).
	RecoverThreshold float64
	// MaxQuarantineFraction refuses to quarantine beyond this fraction
	// of the cluster (correlated slowness means overload, not failure —
	// quarantining everyone would turn congestion into an outage).
	// Default 0.5.
	MaxQuarantineFraction float64
	// Now injects the clock used to stamp quarantine entry times (the
	// autoscaler's quarantine-deadline decommission measures against
	// these). Tests override; nil means time.Now.
	Now func() time.Time
}

const (
	// failWeight is the score a hard failure report (HandleFailure) adds.
	failWeight = 1.0
	// scoreCapFactor × QuarantineThreshold bounds the score, so a long
	// outage cannot make recovery arbitrarily slow.
	scoreCapFactor = 2.0
)

func (hc HealthConfig) withDefaults() HealthConfig {
	if hc.QuarantineThreshold <= 0 {
		hc.QuarantineThreshold = 3
	}
	if hc.RecoverThreshold < 0 {
		hc.RecoverThreshold = 0
	}
	if hc.MaxQuarantineFraction <= 0 {
		hc.MaxQuarantineFraction = 0.5
	}
	if hc.Now == nil {
		hc.Now = time.Now //lint:allow wallclock — clock-injection default
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

	// Per-tenant economics (the second extension block): fleet-wide
	// cumulative admissions, sheds, and cache traffic keyed by tenant id.
	// Frontends ship deltas; the aggregate answers "who is being shed".
	tenants map[string]proto.TenantLoad
}

// maxTenantTotals bounds the aggregate tenant map; past it, new tenant
// ids fold into the same overflow bucket frontends use, so totals still
// conserve while a tenant-id flood cannot exhaust coordinator memory.
const (
	maxTenantTotals      = 4096
	tenantTotalsOverflow = "~other"
)

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
		tenants:      map[string]proto.TenantLoad{},
	}
}

// adjustLocked applies an evidence delta and returns true when the
// node's quarantine status flipped. total is the schedulable-cluster
// size, for the max-fraction guard.
func (h *healthState) adjustLocked(id ring.NodeID, delta float64, total int) (flipped bool) {
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
		if float64(len(h.quarantined)+1) > h.cfg.MaxQuarantineFraction*float64(total) {
			return false // refuse: too much of the cluster already demoted
		}
		h.quarantined[id] = h.cfg.Now()
		return true
	case inQ && s <= h.cfg.RecoverThreshold:
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

func (h *healthState) quarantinedSorted() []int {
	out := make([]int, 0, len(h.quarantined))
	for id := range h.quarantined {
		out = append(out, int(id))
	}
	sort.Ints(out)
	return out
}

// ReportHealth folds one frontend's observation deltas into the
// per-node evidence scores, applies any quarantine transitions (each
// bumps the view epoch), and answers with the current verdict so the
// frontend can re-pull the view immediately when it is stale.
func (c *Coordinator) ReportHealth(rep proto.HealthReport) proto.HealthResp {
	c.mu.Lock()
	members := make(map[ring.NodeID]bool, len(c.ringOf))
	for id := range c.ringOf {
		members[id] = true
	}
	c.mu.Unlock()

	h := c.health
	h.mu.Lock()
	if rep.FE != "" && rep.Seq != 0 {
		// Only an exact sequence repeat is a duplicate (an at-most-once
		// sender can re-deliver just its last report). A LOWER sequence
		// means the frontend restarted and its counter began again at 1
		// — its evidence must keep flowing, not be silenced until the
		// new counter outruns the old incarnation's.
		if last, ok := h.feSeq[rep.FE]; ok && rep.Seq == last {
			resp := proto.HealthResp{Quarantined: h.quarantinedSorted()}
			h.mu.Unlock()
			resp.Epoch = c.Epoch()
			return resp
		}
		h.feSeq[rep.FE] = rep.Seq
	}
	h.shedTotal += int64(rep.Shed)
	h.shedNormalTotal += int64(rep.ShedNormal)
	h.hedgeDeniedTotal += int64(rep.HedgesDenied)
	for _, tl := range rep.Tenants {
		name := tl.Tenant
		if _, known := h.tenants[name]; !known && len(h.tenants) >= maxTenantTotals {
			name = tenantTotalsOverflow
		}
		cur := h.tenants[name]
		cur.Tenant = name
		cur.Admitted += tl.Admitted
		cur.Shed += tl.Shed
		cur.CacheHits += tl.CacheHits
		cur.CacheMisses += tl.CacheMisses
		h.tenants[name] = cur
	}
	if rep.FE != "" {
		h.queueWaitP99[rep.FE] = rep.QueueP99Nanos
		h.queueWaitAt[rep.FE] = h.cfg.Now()
	}
	var flips int
	speeds := map[ring.NodeID]float64{}
	for _, nh := range rep.Nodes {
		id := ring.NodeID(nh.ID)
		if !members[id] {
			continue
		}
		if nh.Speed > 0 {
			speeds[id] = nh.Speed
		}
		h.depths[id] = nh.QueueDepth
		if nh.LatP99Nanos > 0 {
			h.latP99[id] = nh.LatP99Nanos
		}
		bad := float64(nh.Suspicions) + 0.5*float64(nh.ProbeFails)
		good := 0.5 * float64(nh.ProbeOKs)
		if nh.Contacts > 0 {
			// Real completions are the strongest health signal, but cap
			// their weight: a high-traffic interval must not let one
			// node bank unbounded goodwill against future evidence.
			cw := float64(nh.Contacts)
			if cw > 4 {
				cw = 4
			}
			good += cw
		}
		if delta := bad - good; delta != 0 || h.scores[id] != 0 {
			if h.adjustLocked(id, delta, len(members)) {
				flips++
			}
		}
	}
	resp := proto.HealthResp{Quarantined: h.quarantinedSorted()}
	h.mu.Unlock()

	if len(speeds) > 0 {
		c.ReportSpeeds(speeds)
	}
	if flips > 0 {
		c.mu.Lock()
		c.epoch++
		c.mu.Unlock()
	}
	resp.Epoch = c.Epoch()
	return resp
}

// HandleFailure records a hard failure report for a node: a one-shot
// "this node is dead" hint. It is one evidence input to the health
// loop (worth FailWeight), not an immediate range redistribution;
// repeated reports quarantine the node, and Decommission remains the
// explicit path for nodes that are permanently gone.
func (c *Coordinator) HandleFailure(id ring.NodeID) {
	c.mu.Lock()
	_, ok := c.ringOf[id]
	total := len(c.ringOf)
	c.mu.Unlock()
	if !ok {
		return
	}
	h := c.health
	h.mu.Lock()
	flipped := h.adjustLocked(id, failWeight, total)
	h.mu.Unlock()
	if flipped {
		c.mu.Lock()
		c.epoch++
		c.mu.Unlock()
	}
}

// Quarantined returns the node ids currently demoted from scheduling,
// sorted ascending.
func (c *Coordinator) Quarantined() []int {
	c.health.mu.Lock()
	defer c.health.mu.Unlock()
	return c.health.quarantinedSorted()
}

// HealthScore exposes a node's current evidence score (tests,
// operational introspection).
func (c *Coordinator) HealthScore(id ring.NodeID) float64 {
	c.health.mu.Lock()
	defer c.health.mu.Unlock()
	return c.health.scores[id]
}

// ShedTotal reports the cumulative admissions shed across the fleet, as
// accumulated from health reports.
func (c *Coordinator) ShedTotal() int64 {
	c.health.mu.Lock()
	defer c.health.mu.Unlock()
	return c.health.shedTotal
}

// TenantTotals snapshots the fleet-wide per-tenant economics aggregated
// from health reports, sorted by total load descending then tenant id —
// the operator's answer to "who is consuming the fleet and who is being
// shed".
func (c *Coordinator) TenantTotals() []proto.TenantLoad {
	c.health.mu.Lock()
	out := make([]proto.TenantLoad, 0, len(c.health.tenants))
	for _, tl := range c.health.tenants {
		out = append(out, tl)
	}
	c.health.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		la := out[a].Admitted + out[a].Shed + out[a].CacheHits + out[a].CacheMisses
		lb := out[b].Admitted + out[b].Shed + out[b].CacheHits + out[b].CacheMisses
		if la != lb {
			return la > lb
		}
		return out[a].Tenant < out[b].Tenant
	})
	return out
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
	c.mu.Lock()
	schedulable := make(map[ring.NodeID]bool, len(c.ringOf))
	for id, k := range c.ringOf {
		if !c.disabled[k] {
			schedulable[id] = true
		}
	}
	c.mu.Unlock()

	h := c.health
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.cfg.Now()
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
