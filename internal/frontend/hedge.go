package frontend

import (
	"sort"
	"sync"
	"time"

	"roar/internal/core"
	"roar/internal/ring"
)

// Hedged dispatch (Tail-Tolerant Distributed Search; Dean's tail-at-
// scale hedging): a sub-query still unanswered after the hedge delay is
// speculatively re-dispatched onto replica nodes — without waiting for
// SubQueryTimeout and without declaring the primary failed. Whichever
// side answers first wins; the loser's RPC is cancelled all the way to
// the remote matcher through the wire layer's cancel frame. Replica
// overlap can only produce duplicate ids, which the streaming
// aggregator already discards on arrival.

// minHedgeDelay floors the adaptive delay so microsecond-scale latency
// samples cannot turn every sub-query into a hedge storm.
const minHedgeDelay = time.Millisecond

// latTracker keeps a ring of recent sub-query latencies and answers
// quantile queries for the adaptive hedge delay. The quantile is
// recomputed at most every recomputeEvery observations.
type latTracker struct {
	mu      sync.Mutex
	buf     [512]float64 // seconds
	n, idx  int
	adds    int
	cached  float64 // cached quantile value, seconds
	cachedQ float64 // quantile the cache was computed for
	stale   bool
}

const (
	latWarmup      = 32 // observations before the quantile is trusted
	recomputeEvery = 64
)

// count reports the tracked observations (per-node sample-floor check).
func (l *latTracker) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

func (l *latTracker) observe(d time.Duration) {
	l.mu.Lock()
	l.buf[l.idx] = d.Seconds()
	l.idx = (l.idx + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.adds++
	if l.adds%recomputeEvery == 0 {
		l.stale = true
	}
	l.mu.Unlock()
}

// quantile returns the q-th (q in (0,1)) latency quantile, or 0 while
// the tracker is still warming up.
func (l *latTracker) quantile(q float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n < latWarmup {
		return 0
	}
	if l.stale || q != l.cachedQ || l.cached == 0 {
		xs := make([]float64, l.n)
		copy(xs, l.buf[:l.n])
		sort.Float64s(xs)
		pos := q * float64(l.n-1)
		i := int(pos)
		frac := pos - float64(i)
		v := xs[i]
		if i+1 < l.n {
			v = xs[i]*(1-frac) + xs[i+1]*frac
		}
		l.cached, l.cachedQ, l.stale = v, q, false
	}
	return time.Duration(l.cached * float64(time.Second))
}

// nodeTracker returns (creating on demand) the latency tracker for one
// node.
func (f *Frontend) nodeTracker(id ring.NodeID) *latTracker {
	f.mu.RLock()
	l := f.nodeLat[id]
	f.mu.RUnlock()
	if l != nil {
		return l
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if l = f.nodeLat[id]; l == nil {
		l = &latTracker{}
		f.nodeLat[id] = l
	}
	return l
}

// observeLatency feeds one sub-query latency sample into the global and
// the per-node distribution.
func (f *Frontend) observeLatency(id ring.NodeID, d time.Duration) {
	f.lat.observe(d)
	f.nodeTracker(id).observe(d)
}

// hedgeDelay returns the current delay before a slow sub-query on node
// id is hedged, or 0 when hedging is off. With a quantile configured
// the delay adapts to the node's own latency distribution once it has
// latWarmup samples, falling back to the global distribution below that
// floor (fixed HedgeDelay serves as floor and cold-start value in both
// cases); otherwise the fixed delay is used as-is. Judging a node
// against its own history matters: a node serving a large arc is
// legitimately slower than the fleet, and the global quantile would
// hedge every one of its sub-queries.
func (f *Frontend) hedgeDelay(id ring.NodeID) time.Duration {
	hd, hq := f.cfg.HedgeDelay, f.cfg.HedgeQuantile
	if hq <= 0 || hq >= 1 {
		return hd
	}
	f.mu.RLock()
	nl := f.nodeLat[id]
	f.mu.RUnlock()
	lat := &f.lat
	if nl != nil && nl.count() >= latWarmup {
		lat = nl
	}
	if q := lat.quantile(hq); q > hd {
		hd = q
	}
	if hd > 0 && hd < minHedgeDelay {
		hd = minHedgeDelay
	}
	return hd
}

// hedgeCandidates picks replica sub-queries covering sub's arc while
// avoiding the primary and every currently suspected node.
func (f *Frontend) hedgeCandidates(pl *core.Placement, est core.Estimator, sub core.SubQuery) ([]core.SubQuery, error) {
	avoid := f.suspectedSet()
	f.rngMu.Lock()
	defer f.rngMu.Unlock()
	return pl.HedgeSubs(sub, avoid, est, f.rng)
}

// observeSlow folds a cancelled primary's elapsed time into its node's
// speed EWMA as the most favourable speed still consistent with the
// observation (the true latency was at least elapsed), and into the
// latency tracker. The tracker feed matters: without it the adaptive
// hedge delay only ever sees race *winners*, and that survivorship
// bias holds the quantile far below real latency — every sub-query
// hedges, amplifying load exactly when the cluster is saturated.
func (f *Frontend) observeSlow(sub core.SubQuery, elapsed time.Duration) {
	f.observeLatency(sub.Node, elapsed)
	f.mu.RLock()
	h := f.nodes[sub.Node]
	f.mu.RUnlock()
	if h == nil {
		return
	}
	if d := elapsed.Seconds(); d > 0 && sub.Size() > 0 {
		h.speed.Observe(sub.Size() / d)
	}
}
