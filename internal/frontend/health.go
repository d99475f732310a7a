package frontend

import (
	"context"
	"sort"
	"sync"
	"time"

	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/stats"
	"roar/internal/wire"
)

// Node health (§4.8 failure suspicion, made revocable). The seed
// implementation kept a one-way `failed` map: a single timeout on a
// slow-but-alive node made it permanently unschedulable until the
// membership view dropped it. Health is now a per-node state machine:
//
//	healthy ──(sub-query error)──▶ suspected
//	suspected ──(probe RPC ok, or retained by a new view)──▶ recovering
//	recovering ──(sub-query ok)──▶ healthy
//	recovering ──(sub-query error)──▶ suspected
//	any ──(view marks node quarantined)──▶ quarantined
//	quarantined ──(view clears the mark)──▶ recovering
//
// Suspected nodes are unschedulable and probed in the background;
// recovering nodes are scheduled normally (their speed EWMA and the
// queue depth they report keep the scheduler honest) and promote back
// to healthy on the first successful sub-query.
//
// Quarantined is the membership layer's verdict, not a local one: the
// health aggregator saw enough evidence across the fleet to demote the
// node from scheduling. It is sticky against local observations — the
// background probe keeps running (its outcomes are the recovery
// evidence the next HealthReport carries upstream), but only a new
// view can make the node schedulable again, so one frontend's lucky
// probe cannot diverge from the published topology.
type nodeState int32

const (
	stateHealthy nodeState = iota
	stateSuspected
	stateRecovering
	stateQuarantined
)

func (s nodeState) String() string {
	switch s {
	case stateSuspected:
		return "suspected"
	case stateRecovering:
		return "recovering"
	case stateQuarantined:
		return "quarantined"
	default:
		return "healthy"
	}
}

// handle is the frontend's per-node state: wire client, speed estimate,
// health, and the two load signals the estimator consumes (our own
// outstanding work plus the node's last self-reported queue depth).
type handle struct {
	// Fixed when ApplyView constructs the handle.
	id      ring.NodeID
	addr    string
	client  *wire.Client
	credits chan struct{} // per-node outstanding cap; nil = unlimited
	speed   *stats.EWMA
	lat     *latTracker // the node's entry in Frontend.nodeLat

	mu          sync.Mutex
	state       nodeState
	outstanding float64 // sum of in-flight sub-query sizes (this frontend)
	depth       int     // last remote queue-depth report

	// Observation deltas since the last HealthReport; snapshot-and-reset
	// by Frontend.HealthReport so the membership aggregator can sum
	// reports across frontends without double counting.
	suspicions int // healthy/recovering -> suspected transitions
	probeOKs   int
	probeFails int
	contacts   int // successful sub-query completions
}

func (h *handle) healthState() nodeState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// unschedulable reports whether the node must be planned around:
// locally suspected, or demoted by the membership view.
func (h *handle) unschedulable() bool {
	st := h.healthState()
	return st == stateSuspected || st == stateQuarantined
}

// suspect records a genuine sub-query failure (timeout or transport
// error that was not a caller cancellation). Quarantined nodes stay
// quarantined — the view owns that state — but the evidence still
// counts toward the next health report.
func (h *handle) suspect() {
	h.mu.Lock()
	if h.state != stateSuspected {
		h.suspicions++
	}
	if h.state != stateQuarantined {
		h.state = stateSuspected
	}
	h.mu.Unlock()
}

// probeOK records a successful background probe: the node answers RPCs
// again, so suspicion lifts, but it stays "recovering" until a real
// sub-query confirms it end to end. A quarantined node is NOT promoted
// — the probe outcome rides the next HealthReport and the membership
// aggregator decides.
func (h *handle) probeOK(depth int) {
	h.mu.Lock()
	h.probeOKs++
	if h.state == stateSuspected {
		h.state = stateRecovering
	}
	h.depth = depth
	h.mu.Unlock()
}

// probeFail records an unanswered background probe (the node stays in
// its current state; the counter is recovery evidence's counterpart).
func (h *handle) probeFail() {
	h.mu.Lock()
	h.probeFails++
	h.mu.Unlock()
}

// clearSuspicion is probeOK without a depth report — used when a new
// membership view retains the node without quarantining it, which is
// the membership layer's assertion that it is worth re-evaluating.
// This is also the only transition out of quarantine.
func (h *handle) clearSuspicion() {
	h.mu.Lock()
	if h.state == stateSuspected || h.state == stateQuarantined {
		h.state = stateRecovering
	}
	h.mu.Unlock()
}

// setQuarantined applies the view's demotion verdict.
func (h *handle) setQuarantined() {
	h.mu.Lock()
	h.state = stateQuarantined
	h.mu.Unlock()
}

// contactOK records a successful sub-query: full health, whatever the
// prior local state, plus the fresh queue-depth report. (A quarantined
// node keeps its view-assigned state; completions on it can only come
// from requests already in flight when the quarantine view landed.)
func (h *handle) contactOK(depth int) {
	h.mu.Lock()
	h.contacts++
	if h.state != stateQuarantined {
		h.state = stateHealthy
	}
	h.depth = depth
	h.mu.Unlock()
}

// addOutstanding charges (or, negative, returns) a sub-query's size to
// the node's in-flight work.
func (h *handle) addOutstanding(size float64) {
	h.mu.Lock()
	h.outstanding += size
	h.mu.Unlock()
}

// loadSnapshot returns state and the estimator's load inputs.
func (h *handle) loadSnapshot() (nodeState, float64, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state, h.outstanding, h.depth
}

// suspect marks a node's handle suspected, if it is still in the view.
func (f *Frontend) suspect(id ring.NodeID) {
	f.mu.RLock()
	h := f.nodes[id]
	f.mu.RUnlock()
	if h != nil {
		h.suspect()
	}
}

// suspectedSet snapshots the currently unschedulable nodes — locally
// suspected plus view-quarantined — the set the scheduler must plan
// around, RepairPlan must avoid, and hedging must not target.
func (f *Frontend) suspectedSet() map[ring.NodeID]bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make(map[ring.NodeID]bool)
	for id, h := range f.nodes {
		if h.unschedulable() {
			out[id] = true
		}
	}
	return out
}

// MarkFailed flags a node (tests and membership push-downs). Unlike the
// seed's one-way map, the background probe may clear the mark as soon
// as the node answers a ping.
func (f *Frontend) MarkFailed(id ring.NodeID) { f.suspect(id) }

// Health reports every node's health state, for membership reports and
// operational visibility.
func (f *Frontend) Health() map[int]string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make(map[int]string, len(f.nodes))
	for id, h := range f.nodes {
		out[int(id)] = h.healthState().String()
	}
	return out
}

// HealthReport snapshots this frontend's observation deltas for the
// membership health aggregator and resets the counters, so consecutive
// reports carry disjoint evidence. Entries are sorted by node id.
//
// Beyond the failure evidence, the report carries the autoscale
// telemetry the membership elasticity controller consumes: shed counts
// per priority class (Shed = sheddable-low, ShedNormal = queue-timeout
// rejections), hedge-budget denials, an admission-queue wait digest,
// and per-node latency digests drawn from the same rolling histories
// the adaptive hedge delay uses. Counter fields are deltas; digest
// fields are gauges over the rolling window.
func (f *Frontend) HealthReport() proto.HealthReport {
	rep := proto.HealthReport{
		FE:            f.cfg.Name,
		Seq:           f.reportSeq.Add(1),
		Shed:          int(f.shed.Swap(0)),
		ShedNormal:    int(f.shedNorm.Swap(0)),
		HedgesDenied:  int(f.hdgDenied.Swap(0)),
		QueueP50Nanos: f.queueLat.quantile(0.50).Nanoseconds(),
		QueueP99Nanos: f.queueLat.quantile(0.99).Nanoseconds(),
		Tenants:       f.tenants.snapshot(),
	}
	f.mu.RLock()
	handles := make([]*handle, 0, len(f.nodes))
	for _, h := range f.nodes {
		handles = append(handles, h)
	}
	f.mu.RUnlock()
	for _, h := range handles {
		h.mu.Lock()
		nh := proto.NodeHealth{
			ID:         int(h.id),
			Suspicions: h.suspicions,
			ProbeOKs:   h.probeOKs,
			ProbeFails: h.probeFails,
			Contacts:   h.contacts,
			QueueDepth: h.depth,
		}
		h.suspicions, h.probeOKs, h.probeFails, h.contacts = 0, 0, 0, 0
		h.mu.Unlock()
		if v, ok := h.speed.Value(); ok {
			nh.Speed = v
		}
		nh.LatP50Nanos = h.lat.quantile(0.50).Nanoseconds()
		nh.LatP99Nanos = h.lat.quantile(0.99).Nanoseconds()
		rep.Nodes = append(rep.Nodes, nh)
	}
	sort.Slice(rep.Nodes, func(a, b int) bool { return rep.Nodes[a].ID < rep.Nodes[b].ID })
	return rep
}

// RestoreHealthReport re-credits a report whose delivery failed: the
// counters are deltas destructively snapshotted by HealthReport, so a
// push that errors (coordinator restart, network blip) must fold its
// evidence back for the next attempt — losing it exactly when the
// control plane is flaky would silence failure evidence when it
// matters most. Sequence numbers are not rolled back; the aggregator
// tolerates gaps.
func (f *Frontend) RestoreHealthReport(rep proto.HealthReport) {
	f.shed.Add(int64(rep.Shed))
	f.shedNorm.Add(int64(rep.ShedNormal))
	f.hdgDenied.Add(int64(rep.HedgesDenied))
	f.tenants.restore(rep.Tenants)
	f.mu.RLock()
	handles := make(map[int]*handle, len(f.nodes))
	for id, h := range f.nodes {
		handles[int(id)] = h
	}
	f.mu.RUnlock()
	for _, nh := range rep.Nodes {
		h := handles[nh.ID]
		if h == nil {
			continue // node left the view meanwhile; its evidence is moot
		}
		h.mu.Lock()
		h.suspicions += nh.Suspicions
		h.probeOKs += nh.ProbeOKs
		h.probeFails += nh.ProbeFails
		h.contacts += nh.Contacts
		h.mu.Unlock()
	}
}

// overloaded reports whether the mean self-reported queue depth across
// schedulable nodes has crossed the shed high-water mark (0 disables).
// Overload flips the frontend into load-preservation mode: hedging —
// pure extra load — pauses, and sheddable-priority admissions are
// rejected up front (Badue et al.: shed before saturation, not after).
func (f *Frontend) overloaded() bool {
	hw := f.cfg.ShedHighWater
	if hw <= 0 {
		return false
	}
	var sum, n int
	f.mu.RLock()
	for _, h := range f.nodes {
		st, _, depth := h.loadSnapshot()
		if st == stateSuspected || st == stateQuarantined {
			continue
		}
		sum += depth
		n++
	}
	f.mu.RUnlock()
	return n > 0 && sum >= hw*n
}

// probeLoop is the background recovery prober: every probe interval it
// pings suspected nodes and lifts suspicion from the ones that answer.
// New starts it unless probing is disabled; Close stops it.
func (f *Frontend) probeLoop() {
	for {
		select {
		case <-f.stop:
			return
		case <-f.afterFn(f.cfg.ProbeInterval):
		}
		f.probeSuspects(f.cfg.ProbeInterval)
	}
}

// probeSuspects pings every suspected or quarantined node concurrently,
// bounding each probe by the probe interval (capped at 1s). For
// suspected nodes a successful probe lifts suspicion; for quarantined
// nodes it only accumulates recovery evidence for the next health
// report — the membership aggregator decides when they rejoin.
func (f *Frontend) probeSuspects(timeout time.Duration) {
	if timeout > time.Second {
		timeout = time.Second
	}
	f.mu.RLock()
	var suspects []*handle
	for _, h := range f.nodes {
		if h.unschedulable() {
			suspects = append(suspects, h)
		}
	}
	f.mu.RUnlock()
	if len(suspects) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, h := range suspects {
		wg.Add(1)
		go func(h *handle) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(f.lifeCtx, timeout)
			defer cancel()
			var pr proto.PingResp
			if err := h.client.Call(ctx, proto.MNodePing, proto.PingReq{}, &pr); err != nil {
				h.probeFail() // still unreachable; stay put
				return
			}
			h.probeOK(pr.QueueDepth)
		}(h)
	}
	wg.Wait()
}
