package frontend

import (
	"context"
	"sort"
	"sync"
	"time"

	"roar/internal/core"
	"roar/internal/proto"
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

// subResult is one side of the primary/hedge race.
type subResult struct {
	resps []proto.QueryResp
	err   error
}

// sendSubHedged executes one sub-query with speculative hedging. It
// adds winning responses to the aggregator and returns nil, or returns
// the primary's error after every side failed (the caller then runs the
// §4.4 re-dispatch). Suspicion is only recorded for legs that failed on
// their own — never for legs we cancelled after losing the race.
func (f *Frontend) sendSubHedged(ctx context.Context, pl *core.Placement, est core.Estimator, agg *aggregator, spec QuerySpec, sub core.SubQuery) error {
	// Every primary dispatch funds the hedge budget with its fraction
	// of a token, whatever happens to this particular sub-query.
	f.budget.earn(1)

	hd := f.hedgeDelay(sub.Node)
	if hd <= 0 || hd >= f.cfg.SubQueryTimeout {
		resp, err := f.sendSub(ctx, agg.qid, spec, sub, nil)
		if err == nil {
			agg.add(resp)
			return nil
		}
		if ctx.Err() == nil {
			f.suspect(sub.Node)
		}
		return err
	}

	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	primary := make(chan subResult, 1)
	started := make(chan struct{})
	go func() {
		resp, err := f.sendSub(pctx, agg.qid, spec, sub, started)
		primary <- subResult{resps: []proto.QueryResp{resp}, err: err}
	}()

	finishPrimary := func(r subResult) error {
		if r.err == nil {
			agg.add(r.resps[0])
			return nil
		}
		if ctx.Err() == nil {
			f.suspect(sub.Node)
		}
		return r.err
	}

	// Arm the hedge timer only once the primary holds its node credit:
	// hedging exists to cut remote tail latency, and counting local
	// queueing would turn saturation into a hedge storm.
	select {
	case <-started:
	case r := <-primary:
		return finishPrimary(r)
	case <-ctx.Done():
		return ctx.Err()
	}
	pstart := f.nowFn()
	timer := f.timerFn(hd)
	defer timer.Stop()
	select {
	case r := <-primary:
		return finishPrimary(r)
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
	}

	// The primary is slower than the hedge delay: race replicas against
	// it. All hedge legs must succeed for the hedge side to cover the
	// arc (a bracket pair covers it jointly; a cross-ring replica alone).
	// But hedging is pure extra load, so it must clear three gates
	// first: the overload brake (no speculation while reported queue
	// depths are over the high-water mark), the per-query cap, and the
	// global token-bucket budget — one token per replica leg.
	if f.overloaded() {
		agg.hedgeDenied()
		return finishPrimary(<-primary)
	}
	hsubs, herr := f.hedgeCandidates(pl, est, sub)
	if herr != nil {
		return finishPrimary(<-primary) // no replica available
	}
	if m := f.cfg.HedgeMaxPerQuery; m > 0 && agg.hedgedCount()+len(hsubs) > m {
		agg.hedgeDenied()
		return finishPrimary(<-primary)
	}
	if !f.budget.take(len(hsubs)) {
		agg.hedgeDenied()
		return finishPrimary(<-primary)
	}
	agg.hedgeLaunched(len(hsubs))
	// Bound the hedge side as a whole by the sub-query timer: its legs'
	// credit waits must not stretch failure recovery beyond the one-
	// SubQueryTimeout bound the §4.4 path had before hedging.
	hctx, hcancel := context.WithTimeout(ctx, f.cfg.SubQueryTimeout)
	defer hcancel()
	hedge := make(chan subResult, 1)
	go func() {
		var (
			hwg  sync.WaitGroup
			hmu  sync.Mutex
			errH error
			out  []proto.QueryResp
		)
		for _, hs := range hsubs {
			hwg.Add(1)
			go func(hs core.SubQuery) {
				defer hwg.Done()
				resp, err := f.sendSub(hctx, agg.qid, spec, hs, nil)
				if err != nil {
					if hctx.Err() == nil {
						f.suspect(hs.Node) // genuine hedge-node failure
					}
					hmu.Lock()
					if errH == nil {
						errH = err
					}
					hmu.Unlock()
					return
				}
				hmu.Lock()
				out = append(out, resp)
				hmu.Unlock()
			}(hs)
		}
		hwg.Wait()
		hedge <- subResult{resps: out, err: errH}
	}()

	select {
	case r := <-primary:
		if r.err == nil {
			hcancel() // primary won: abandon the hedge legs
			agg.add(r.resps[0])
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		f.suspect(sub.Node)
		if hr := <-hedge; hr.err == nil {
			// The hedge saved a genuinely failed primary before its
			// timeout would have: count it as a recovered failure win.
			agg.hedgeWon()
			for _, resp := range hr.resps {
				agg.add(resp)
			}
			return nil
		}
		return r.err
	case hr := <-hedge:
		if hr.err == nil {
			pcancel() // hedge won: cancel the straggling primary
			// Feed the elapsed time back as a speed lower bound so the
			// scheduler learns the primary is slow even though its
			// response was abandoned.
			f.observeSlow(sub, f.nowFn().Sub(pstart))
			agg.hedgeWon()
			for _, resp := range hr.resps {
				agg.add(resp)
			}
			return nil
		}
		return finishPrimary(<-primary)
	}
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
