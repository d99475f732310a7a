package frontend

import (
	"context"
	"fmt"
	"slices"
	"time"

	"roar/internal/core"
	"roar/internal/proto"
	"roar/internal/wire"
)

// Dispatch: one query's fan-out, run by the query's own goroutine (the
// package comment says who owns what). Every leg is an asynchronous wire
// call on the query's sink; the loop in dispatch waits on a completion
// from that sink, one timer armed to the earliest pending deadline (a
// primary's hedge delay, a leg's SubQueryTimeout) and the caller's
// context. A hedge launch, the first-side-wins race, the §4.4
// split-and-repair of a failed sub-query and the three hedge gates are
// state transitions of that loop, so nothing here is locked. The one
// goroutine the dispatcher can start is the waiter of a leg whose node
// has no free credit.

// maxRepairDepth bounds the §4.4 re-dispatch recursion so a query
// terminates under mass failure.
const maxRepairDepth = 4

// mergeIDs orders the ids the legs returned and drops the duplicates
// that replica overlap after a hedged or failure re-dispatch produces.
// A positive limit is the global top-k cut of a limited plaintext query
// (each node returned its arc-local smallest ids; the global smallest k
// are a subset of their union).
func mergeIDs(ids []uint64, limit int) []uint64 {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	return ids
}

type legState uint8

const (
	legWaiting  legState = iota // not sent: new, or its node had no free credit and a waiter will post
	legInflight                 // on the wire, holding its node's credit
	legDone                     // answered, failed, expired or abandoned
)

type hedgeState uint8

const (
	hedgeOff    hedgeState = iota // the deadline is the failure timer
	hedgeArmed                    // the deadline is the hedge delay
	hedgeRacing                   // replica legs are racing this primary
)

// leg is one RPC of the fan-out: a primary (a sub-query of the plan or
// of a repair) or one of the replica legs hedging a slow primary.
type leg struct {
	sub   core.SubQuery
	h     *handle
	of    *leg // the primary a hedge leg races; nil on a primary
	depth int  // §4.4 repair depth of a primary

	tag      int // index in dispatcher.legs; the wire tag of its call
	state    legState
	call     *wire.Pending
	start    time.Time // credit held, just before the write
	deadline time.Time // next timer event; zero while a primary waits for credit
	resp     proto.QueryResp

	// Primary only.
	hedge      hedgeState
	hedges     []leg
	hedgesLeft int   // replica legs yet to answer
	err        error // its own failure, kept while the hedge side still races
}

type dispatcher struct {
	f    *Frontend
	ctx  context.Context
	pl   *core.Placement
	est  core.Estimator
	req  proto.QueryReq // re-aimed at each leg's arc; Go encodes it before returning
	res  Result         // unmerged ids and the fan-out's counters
	err  error
	sink *wire.Sink
	legs []*leg
	open int // sub-queries neither answered nor replaced by their repair

	timer *time.Timer
	armed time.Time     // what the timer is set to
	done  chan struct{} // closed on return; made for the first credit waiter
}

// dispatch runs subs to completion. The Result carries the unmerged ids
// and the fan-out's counters, also when err is set.
func (f *Frontend) dispatch(ctx context.Context, pl *core.Placement, est core.Estimator, spec QuerySpec, subs []core.SubQuery) (Result, error) {
	d := &dispatcher{f: f, ctx: ctx, pl: pl, est: est, sink: wire.NewSink(f.nowFn),
		legs: make([]*leg, 0, len(subs)),
		req:  proto.QueryReq{QID: f.qid.Add(1), Flags: f.memoFlags(spec), Q: spec.Enc, Plain: spec.Plain}}
	// No deadline comes sooner than a failure timer started now, except
	// a hedge delay, and arm moves the timer up for those.
	d.armed = f.nowFn().Add(f.cfg.SubQueryTimeout)
	d.timer = f.timerFn(f.cfg.SubQueryTimeout)
	defer d.stop()
	d.startSubs(subs, 0)
	for d.open > 0 && d.err == nil {
		select {
		case <-d.sink.Ready():
			for d.err == nil { // what an error leaves queued is stop's to take back
				p := d.sink.Next()
				if p == nil {
					break
				}
				d.onEvent(p)
			}
		case <-d.timer.C:
			d.onTimer()
		case <-ctx.Done():
			d.err = ctx.Err()
		}
	}
	return d.res, d.err
}

// stop abandons whatever is still outstanding and takes back what was
// delivered meanwhile, so a returned query holds no credit, no
// registered call and no pooled frame.
func (d *dispatcher) stop() {
	d.timer.Stop()
	for _, l := range d.legs {
		d.abandon(l)
	}
	if d.done != nil {
		close(d.done)
	}
	d.sink.Close()
	for p := d.sink.Next(); p != nil; p = d.sink.Next() {
		d.onEvent(p)
	}
}

// newLegs resolves the handles of subs under one read lock.
func (d *dispatcher) newLegs(subs []core.SubQuery) []leg {
	legs := make([]leg, len(subs))
	d.f.mu.RLock()
	for i, sub := range subs {
		legs[i].sub, legs[i].h = sub, d.f.nodes[sub.Node]
	}
	d.f.mu.RUnlock()
	return legs
}

// startSubs starts one primary per sub-query. Every primary dispatch
// funds the hedge budget with its fraction of a token, whatever happens
// to that sub-query.
func (d *dispatcher) startSubs(subs []core.SubQuery, depth int) {
	d.res.SubQueries += len(subs)
	d.open += len(subs)
	d.f.budget.earn(len(subs))
	legs := d.newLegs(subs)
	for i := range legs {
		l := &legs[i]
		l.depth = depth
		if l.h == nil {
			d.primaryFinished(l, fmt.Errorf("frontend: no handle for node %d", l.sub.Node))
			continue
		}
		d.launch(l)
	}
}

// launch takes the node's outstanding credit (per-node backpressure)
// and sends the leg. A leg whose node has none waits without delaying
// the others: a waiter goroutine takes the credit when one frees and
// posts the leg's tag into the sink.
func (d *dispatcher) launch(l *leg) {
	l.tag = len(d.legs)
	d.legs = append(d.legs, l)
	if credits := l.h.credits; credits != nil {
		select {
		case credits <- struct{}{}:
		default:
			if d.done == nil {
				d.done = make(chan struct{})
			}
			go func(tag int, sink *wire.Sink, done <-chan struct{}) {
				select {
				case credits <- struct{}{}:
					if !sink.Post(tag) {
						<-credits // the query has returned
					}
				case <-done:
				}
			}(l.tag, d.sink, d.done)
			return
		}
	}
	d.send(l)
}

// send writes the leg's request, credit held. Its hedge delay and its
// SubQueryTimeout count from here, so queueing for a credit is never
// taken for remote slowness; a hedge leg keeps the deadline of its
// side, which bounds the side as a whole by one SubQueryTimeout.
func (d *dispatcher) send(l *leg) {
	now := d.f.nowFn()
	l.state, l.start = legInflight, now
	l.h.addOutstanding(l.sub.Size())
	if l.of == nil {
		l.deadline = now.Add(d.f.cfg.SubQueryTimeout)
		if hd := d.f.hedgeDelay(l.sub.Node); hd > 0 && hd < d.f.cfg.SubQueryTimeout {
			l.hedge, l.deadline = hedgeArmed, now.Add(hd)
		}
	}
	d.req.Lo, d.req.Hi = float64(l.sub.Lo), float64(l.sub.Hi)
	l.call = l.h.client.Go(proto.MNodeQuery, &d.req, l.tag, d.sink)
	d.arm(l.deadline, now)
}

// settle ends an in-flight leg: its credit and its share of the node's
// outstanding work go back.
func (d *dispatcher) settle(l *leg) {
	l.state = legDone
	if l.h.credits != nil {
		<-l.h.credits
	}
	l.h.addOutstanding(-l.sub.Size())
}

// abandon drops a leg whose answer no longer matters, down to the
// remote matcher. A leg still waiting for its credit is only marked:
// the credit goes back when its waiter posts it, or never arrives.
func (d *dispatcher) abandon(l *leg) {
	if l.state == legInflight {
		l.call.Abandon()
		d.settle(l)
	}
	l.state = legDone
}

// onEvent takes one delivery from the sink: the credit a waiter now
// holds for its leg, or a call's completion. Either may be for a leg
// abandoned since, and is then only given back.
func (d *dispatcher) onEvent(p *wire.Pending) {
	l := d.legs[p.Tag]
	switch {
	case l.call == nil && l.state == legDone:
		<-l.h.credits
	case l.call == nil:
		d.send(l)
	case l.state == legDone:
		p.Release()
	default:
		err := p.Result(&l.resp)
		d.settle(l)
		if err == nil {
			// Successful contact: record health, the node's queue depth,
			// the latency sample for the adaptive hedge delay, and the
			// speed estimate (observed fraction/second), all on the node
			// that served the leg. The sample ends at the response's
			// arrival: this loop's own queueing is not remote slowness.
			elapsed := p.Arrived.Sub(l.start)
			l.h.contactOK(l.resp.QueueDepth)
			d.f.lat.observe(elapsed)
			l.h.lat.observe(elapsed)
			if s, size := elapsed.Seconds(), l.sub.Size(); s > 0 && size > 0 {
				l.h.speed.Observe(size / s)
			}
		}
		if l.of != nil {
			d.hedgeFinished(l, err, p.Arrived)
		} else {
			d.primaryFinished(l, err)
		}
	}
}

// arm makes sure the timer fires no later than t.
func (d *dispatcher) arm(t, now time.Time) {
	if t.Before(d.armed) {
		d.armed = t
		d.timer.Reset(t.Sub(now))
	}
}

// onTimer acts on every deadline that has passed and re-arms the timer
// to the earliest one left.
func (d *dispatcher) onTimer() {
	now := d.f.nowFn()
	for i := 0; i < len(d.legs) && d.err == nil; i++ { // a hedge launch appends
		l := d.legs[i]
		if l.state == legDone || l.deadline.IsZero() || l.deadline.After(now) {
			continue
		}
		switch {
		case l.of != nil:
			// The hedge side ran out of its one SubQueryTimeout, credit
			// waits included. Its legs were not given a timer of their
			// own, so none of them is suspected.
			d.hedgeLost(l.of)
		case l.hedge == hedgeArmed:
			d.hedgeDecision(l, now)
		default:
			d.abandon(l)
			d.primaryFinished(l, context.DeadlineExceeded)
		}
	}
	d.armed = now.Add(d.f.cfg.SubQueryTimeout) // any later deadline is a later send's to arm
	for _, l := range d.legs {
		if l.state != legDone && !l.deadline.IsZero() && l.deadline.Before(d.armed) {
			d.armed = l.deadline
		}
	}
	d.timer.Reset(d.armed.Sub(now))
}

// hedgeDecision runs when a primary is slower than its hedge delay:
// race replicas against it. All hedge legs must succeed for the hedge
// side to cover the arc (a bracket pair covers it jointly; a cross-ring
// replica alone). But hedging is pure extra load, so it must clear
// three gates first: the overload brake (no speculation while reported
// queue depths are over the high-water mark), the per-query cap, and
// the global token-bucket budget, one token per replica leg.
func (d *dispatcher) hedgeDecision(l *leg, now time.Time) {
	f := d.f
	l.hedge, l.deadline = hedgeOff, l.start.Add(f.cfg.SubQueryTimeout)
	if f.overloaded() {
		d.res.HedgesDenied++
		return
	}
	hsubs, err := f.hedgeCandidates(d.pl, d.est, l.sub)
	if err != nil {
		return // no replica available
	}
	hedges := d.newLegs(hsubs)
	for i := range hedges {
		if hedges[i].h == nil {
			return // a replica left the view under the plan
		}
	}
	n := len(hedges)
	if m := f.cfg.HedgeMaxPerQuery; (m > 0 && d.res.HedgedSubs+n > m) || !f.budget.take(n) {
		d.res.HedgesDenied++
		return
	}
	d.res.Hedges++
	d.res.HedgedSubs += n
	d.res.SubQueries += n
	l.hedge, l.hedges, l.hedgesLeft = hedgeRacing, hedges, n
	side := now.Add(f.cfg.SubQueryTimeout)
	for i := range hedges {
		hedges[i].of, hedges[i].deadline = l, side
		d.launch(&hedges[i])
	}
}

// dropHedges abandons p's replica legs, if it has any.
func (d *dispatcher) dropHedges(p *leg) {
	for i := range p.hedges {
		d.abandon(&p.hedges[i])
	}
	p.hedge = hedgeOff
}

func (d *dispatcher) add(resp *proto.QueryResp) {
	d.res.IDs = append(d.res.IDs, resp.IDs...)
	d.res.Scanned += resp.Scanned
}

// primaryFinished handles a primary's answer or failure. Suspicion is
// recorded only for a leg that failed on its own, never for one this
// loop abandoned after it lost a race.
func (d *dispatcher) primaryFinished(l *leg, err error) {
	switch {
	case err == nil: // the primary won, if it was racing
		d.add(&l.resp)
		d.dropHedges(l)
		d.open--
	case d.ctx.Err() != nil:
		d.err = d.ctx.Err()
	default:
		d.f.suspect(l.sub.Node)
		if l.hedge == hedgeRacing {
			l.err = err // the hedge side may still save the sub-query
			return
		}
		d.repair(l, err)
	}
}

// hedgeFinished handles one replica leg. The side wins when its last
// leg answers, and is lost with its first failure.
func (d *dispatcher) hedgeFinished(hl *leg, err error, at time.Time) {
	p := hl.of
	if err != nil {
		if d.ctx.Err() == nil {
			d.f.suspect(hl.sub.Node) // genuine hedge-node failure
		}
		d.hedgeLost(p)
		return
	}
	if p.hedgesLeft--; p.hedgesLeft > 0 {
		return
	}
	if p.state == legInflight {
		// Hedge won: cancel the straggling primary, and feed the elapsed
		// time back as a speed lower bound so the scheduler learns the
		// primary is slow even though its response was abandoned.
		d.abandon(p)
		d.f.observeSlow(p.sub, at.Sub(p.start))
	}
	// Otherwise the hedge saved a genuinely failed primary before its
	// timeout would have: a recovered failure counts as a win too.
	p.hedge = hedgeOff
	d.res.HedgeWins++
	for i := range p.hedges {
		d.add(&p.hedges[i].resp)
	}
	d.open--
}

// hedgeLost ends a failed hedge side. The primary carries on alone, or,
// if it had already failed, the sub-query is repaired.
func (d *dispatcher) hedgeLost(p *leg) {
	d.dropHedges(p)
	if p.state == legDone {
		d.repair(p, p.err)
	}
}

// repair is the failure path: the node is already suspected; split the
// sub-query in two around it (§4.4) and dispatch the pieces.
func (d *dispatcher) repair(l *leg, err error) {
	d.res.Failures++
	if l.depth >= maxRepairDepth {
		d.err = fmt.Errorf("frontend: sub-query (%v,%v] failed beyond retry depth: %w", l.sub.Lo, l.sub.Hi, err)
		return
	}
	suspected := d.f.suspectedSet()
	d.f.rngMu.Lock()
	repaired, rerr := d.pl.RepairPlan(core.Plan{Subs: []core.SubQuery{l.sub}}, suspected, d.est, d.f.rng)
	d.f.rngMu.Unlock()
	if rerr != nil {
		d.err = fmt.Errorf("frontend: cannot re-place failed sub-query: %w", rerr)
		return
	}
	d.open--
	d.startSubs(repaired.Subs, l.depth+1)
}
