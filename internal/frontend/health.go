package frontend

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"roar/internal/clock"
	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/stats"
	"roar/internal/wire"
)

// Node health (§4.8 failure suspicion, made revocable). Every
// observation of a node is one ok/fail sample under one rule
// (handle.observe), whether it is a leg's outcome (dispatch.go) or a
// background probe, which pings every node in the view each
// ProbeInterval whatever the load. Three states:
//
//	healthy ──(failed leg or probe)──▶ suspected
//	suspected ──(answered leg or probe)──▶ healthy
//	any ──(view marks node quarantined)──▶ quarantined
//	quarantined ──(view clears the mark)──▶ healthy
//
// Suspected nodes are unschedulable. Because the probe covers every
// node, a node that dies while idle is suspected within one interval,
// and a live node's queue depth is never older than one interval, even
// when that depth keeps the scheduler away from it.
//
// Quarantined is the membership layer's verdict, not a local one: the
// health aggregator saw enough evidence across the fleet to demote the
// node from scheduling. Samples never move a node into or out of it —
// only a view does, so one frontend's lucky probe cannot diverge from
// the published topology — but they still count toward the next
// HealthReport, which is the recovery evidence the aggregator reads.
type nodeState int32

const (
	stateHealthy nodeState = iota
	stateSuspected
	stateQuarantined
)

func (s nodeState) String() string {
	switch s {
	case stateSuspected:
		return "suspected"
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

	// mbits is the matching parameter the node's last answered probe
	// reported; 0 until one answers (see Frontend.patcher).
	mbits atomic.Int64

	mu          sync.Mutex
	state       nodeState
	outstanding float64 // sum of in-flight sub-query sizes (this frontend)
	depth       int     // last remote queue-depth report

	// Samples since the last HealthReport, which snapshots and resets
	// them so the membership aggregator can sum reports across
	// frontends without double counting.
	fails, oks int
}

func (h *handle) healthState() nodeState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// unschedulable reports whether the node must be planned around:
// locally suspected, or demoted by the membership view.
func (h *handle) unschedulable() bool {
	return h.healthState() != stateHealthy
}

// observe is the health rule: a failed leg or probe suspects the node;
// an answer makes it healthy and refreshes its queue depth. A
// quarantined node keeps its state, but every sample counts toward the
// next report.
func (h *handle) observe(ok bool, depth int) {
	h.mu.Lock()
	if ok {
		h.oks++
		h.depth = depth
	} else {
		h.fails++
	}
	if h.state != stateQuarantined {
		h.state = stateSuspected
		if ok {
			h.state = stateHealthy
		}
	}
	h.mu.Unlock()
}

// setVerdict installs a view's verdict on the node: quarantined, or
// healthy whatever this frontend observed (§4.8 suspicion must not
// ratchet; retaining the node is the membership layer's assertion that
// it deserves re-evaluation).
func (h *handle) setVerdict(quarantined bool) {
	h.mu.Lock()
	h.state = stateHealthy
	if quarantined {
		h.state = stateQuarantined
	}
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

// suspectedSet snapshots the currently unschedulable nodes — locally
// suspected plus view-quarantined — which no re-placed sub-query and no
// hedge leg may target (replicas). The scheduler plans around them
// through the estimator, and the dispatcher re-places a leg it still
// aims at one.
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

// MarkFailed records a failed observation of a node, as a failed leg
// would (tests and operators). The next answered probe or leg clears it.
func (f *Frontend) MarkFailed(id ring.NodeID) {
	f.mu.RLock()
	h := f.nodes[id]
	f.mu.RUnlock()
	if h != nil {
		h.observe(false, 0)
	}
}

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

// handles snapshots the handles of the nodes in the view.
func (f *Frontend) handles() []*handle {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*handle, 0, len(f.nodes))
	for _, h := range f.nodes {
		out = append(out, h)
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
// rejections), hedge-budget denials, the admission-queue wait p99, and
// per-node latency p99s drawn from the same rolling histories the
// adaptive hedge delay uses. Counter fields are deltas; the p99s are
// gauges over the rolling window.
func (f *Frontend) HealthReport() proto.HealthReport {
	rep := proto.HealthReport{
		FE:            f.cfg.Name,
		Seq:           f.reportSeq.Add(1),
		Shed:          int(f.shed.Swap(0)),
		ShedNormal:    int(f.shedNorm.Swap(0)),
		HedgesDenied:  int(f.hdgDenied.Swap(0)),
		QueueP99Nanos: f.queueLat.quantile(0.99).Nanoseconds(),
	}
	for _, h := range f.handles() {
		h.mu.Lock()
		nh := proto.NodeHealth{ID: int(h.id), Fails: h.fails, OKs: h.oks, QueueDepth: h.depth}
		h.fails, h.oks = 0, 0
		h.mu.Unlock()
		if v, ok := h.speed.Value(); ok {
			nh.Speed = v
		}
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
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, nh := range rep.Nodes {
		h := f.nodes[ring.NodeID(nh.ID)]
		if h == nil {
			continue // node left the view meanwhile; its evidence is moot
		}
		h.mu.Lock()
		h.fails += nh.Fails
		h.oks += nh.OKs
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
		if st != stateHealthy {
			continue
		}
		sum += depth
		n++
	}
	f.mu.RUnlock()
	return n > 0 && sum >= hw*n
}

// probeLoop runs a probe round every probe interval. New starts it
// unless probing is disabled; Close stops it.
func (f *Frontend) probeLoop() {
	for {
		select {
		case <-f.stop:
			return
		case <-clock.After(f.cfg.Clock, f.cfg.ProbeInterval):
		}
		f.probeAll(f.cfg.ProbeInterval)
	}
}

// probeAll pings every node in the view concurrently, each bounded by
// timeout (capped at 1s), and observes each outcome: one sample per node
// per round, whatever the query load.
func (f *Frontend) probeAll(timeout time.Duration) {
	timeout = min(timeout, time.Second)
	var wg sync.WaitGroup
	for _, h := range f.handles() {
		wg.Add(1)
		go func(h *handle) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(f.lifeCtx, timeout)
			defer cancel()
			var pr proto.PingResp
			err := h.client.Call(ctx, proto.MNodePing, proto.PingReq{}, &pr)
			h.observe(err == nil, pr.QueueDepth)
			if err == nil {
				h.mbits.Store(int64(pr.MBits))
			}
		}(h)
	}
	wg.Wait()
}
