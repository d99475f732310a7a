// Package frontend implements the ROAR front-end server (§4.8): it
// receives client queries, admits them through a bounded in-flight
// window, splits them into sub-queries with the Algorithm 1 scheduler,
// dispatches them over pooled TCP connections under a per-node
// outstanding-credit cap (backpressure: a slow node stalls only its own
// legs), hedges slow sub-queries onto replica nodes before the failure
// timer fires (first response wins, the loser is cancelled down to the
// remote matcher), detects node failures through per-sub-query timers,
// re-places a sub-query whose node has failed it, or is unschedulable
// when it is about to be sent, with the §4.4 fallback, merges the
// sub-responses, and maintains per-server processing-speed EWMAs from
// observed completions. Failure suspicion is revocable and has one rule
// (health.go): every leg outcome and every background probe — which
// pings every node each interval, whatever the load — is one ok/fail
// sample; a failure suspects the node, an answer makes it healthy, and
// only a view quarantines it or lifts the quarantine (three states).
//
// A query is run by the goroutine that called Query, start to finish
// (dispatch.go): it starts every leg as an asynchronous wire call
// (wire.Client.Go) on one sink of its own and loops on that sink, one
// timer and its context. The query owns its legs: each is tagged with
// its index, every sample it yields (speed, latency, queue depth,
// outstanding work) goes to the handle of the node that served it,
// timed from just before its write to its response's arrival, and each
// is abandoned as soon as its answer stops mattering and at the latest
// when Query returns. Completions come from the connections' read
// loops, which only ever append to the sink; a sink takes any number of
// them without blocking and refuses them once its query has returned.
package frontend

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"roar/internal/clock"
	"roar/internal/core"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/stats"
	"roar/internal/wire"
)

const (
	// defaultProbeInterval is the probe cadence when none is
	// configured.
	defaultProbeInterval = 500 * time.Millisecond
	// speedAlpha is the EWMA smoothing of the per-node speed estimates.
	speedAlpha = 0.1
	// initialSpeed seeds the estimate of an unseen node, in id-space
	// fraction per second.
	initialSpeed = 1.0
)

// Config is the only source of a frontend's settings: New resolves the
// defaults once and nothing changes them afterwards.
type Config struct {
	// Name identifies this frontend in health reports to the membership
	// server (its listen address, or any stable label). Optional.
	Name string
	// PQ forces the query partitioning level; 0 uses the view's safe p.
	PQ int
	// RangeAdjust enables the §4.8.2 boundary-shifting optimisation.
	RangeAdjust bool
	// MaxSplits enables slow-sub-query splitting up to this many extra
	// sub-queries per query.
	MaxSplits int
	// SubQueryTimeout is the failure-detection timer (§4.8). Default 5s.
	SubQueryTimeout time.Duration
	// Seed for the failure-fallback randomness.
	Seed int64

	// PoolSize is the per-node wire connection pool width (default 1).
	// Larger pools keep sub-query writes from serialising behind one
	// connection at high query concurrency.
	PoolSize int
	// MaxInFlight caps concurrently executing queries (admission
	// control). Excess Query calls queue until a slot frees, their
	// context ends, or QueueTimeout elapses. 0 = unlimited.
	MaxInFlight int
	// QueueTimeout bounds the admission wait when MaxInFlight is set;
	// 0 waits as long as the caller's context allows.
	QueueTimeout time.Duration

	// NodeMaxOutstanding caps concurrent in-flight sub-query RPCs per
	// node (per-node backpressure): dispatch to a backed-up node blocks
	// on that node's own credit channel, so one slow node delays only
	// the legs bound for it. 0 = unlimited.
	NodeMaxOutstanding int
	// HedgeDelay turns hedging on: a sub-query still unanswered after
	// the hedge delay is speculatively re-sent to replicas (it must be
	// below SubQueryTimeout to matter). HedgeDelay is the delay's floor
	// and cold-start value; above it the delay adapts to the 0.95
	// quantile of observed leg latencies, and hedged legs are budgeted
	// to about 5 % of primaries (hedge.go, hedgebudget.go). 0 = off.
	HedgeDelay time.Duration
	// ProbeInterval is the cadence of the background probe that pings
	// every node in the view. 0 defaults to 500ms; negative disables
	// probing (a node is then observed only through its legs, and
	// suspicion clears only via view retention).
	ProbeInterval time.Duration

	// ShedHighWater, when positive, is the mean node-reported queue
	// depth at which the frontend declares overload: hedging pauses and
	// PriorityLow admissions are rejected with ErrShed. 0 disables.
	ShedHighWater int

	// CacheBudget bounds the result cache's resident bytes (keys, id
	// payloads, and per-entry overhead). 0 disables caching entirely.
	CacheBudget int64
	// TenantRate is each tenant's admission-quota refill, in queries
	// per second. 0 disables quota enforcement; see tenant.go for the
	// work-conserving semantics.
	TenantRate float64
	// TenantBurst is the quota bucket capacity (default max(rate, 8)).
	TenantBurst float64

	// Clock is the time source of every time read and timer: the
	// sub-query timeout, the admission wait, the probe loop, the hedge
	// budget, the tenant quotas and the Syncer's loops. Nil means
	// clock.Real.
	Clock clock.Clock
}

// Priority classes admission control distinguishes under overload.
type Priority int

const (
	// PriorityBulk marks background batch work: shed under overload
	// like PriorityLow, and additionally metered by the tenant quota
	// even when the admission pool is idle.
	PriorityBulk Priority = -2
	// PriorityLow marks sheddable work: rejected first when the
	// cluster's reported queue depths cross the shed high-water mark.
	PriorityLow Priority = -1
	// PriorityNormal is the default class (zero value).
	PriorityNormal Priority = 0
	// PriorityHigh is never shed and bypasses the tenant quota.
	PriorityHigh Priority = 1
)

// ErrOverloaded is returned when a query waits longer than QueueTimeout
// for an admission slot.
var ErrOverloaded = errors.New("frontend: overloaded, admission queue timeout")

// ErrShed is returned to PriorityLow queries rejected at admission
// while the frontend is over its shed high-water mark.
var ErrShed = errors.New("frontend: overloaded, sheddable query rejected")

// Result is one executed query.
type Result struct {
	IDs          []uint64
	Delay        time.Duration
	Queue        time.Duration // admission-control wait
	Schedule     time.Duration // plan computation (Fig 7.11 breakdown)
	Dispatch     time.Duration // network + remote matching
	Merge        time.Duration // result assembly + dedup
	SubQueries   int           // sub-queries sent (grows on failures and hedges)
	Failures     int           // failed sub-queries recovered
	Hedges       int           // speculative replica dispatches launched
	HedgedSubs   int           // hedged replica legs sent (budget denominator)
	HedgesDenied int           // hedges suppressed by the budget or overload
	HedgeWins    int           // hedges that answered before the primary
	Scanned      int           // objects scanned across nodes
	// Source attributes the answer: SourceCache (result cache or
	// coalesced fan-out), SourceHedged (fan-out with hedged legs), or
	// SourceFanout. Empty only on error.
	Source string
}

// Frontend schedules and executes queries against a node view.
type Frontend struct {
	cfg    Config        // defaults resolved in New; read-only afterwards
	admit  chan struct{} // admission slots (nil = unlimited)
	budget *hedgeBudget  // hedge rate limit
	qid    atomic.Uint64 // query ids for tracing

	mu    sync.RWMutex
	view  proto.View
	pl    *core.Placement
	nodes map[ring.NodeID]*handle

	lat latTracker // recent sub-query latencies (adaptive hedge delay)
	// nodeLat holds per-node latency distributions: a node serving a
	// naturally large arc is judged against its own history, not the
	// fleet's, once it has enough samples (guarded by f.mu).
	nodeLat map[ring.NodeID]*latTracker

	shed      atomic.Int64  // PriorityLow queries shed since the last health report
	shedNorm  atomic.Int64  // queries rejected on admission-queue timeout since the last report
	hdgDenied atomic.Int64  // hedges denied (budget/overload) since the last report
	queueLat  latTracker    // admission-queue waits of admitted queries (report digest)
	reportSeq atomic.Uint64 // health report sequence numbers

	// Result cache (nil when Config.CacheBudget is 0) and its fences.
	// cacheGen advances on every strictly-newer view install; entries
	// from older generations are unservable. ingDrained is the highest
	// drained watermark observed (ObserveIngest); an entry computed
	// before it is brought forward over the records of drained, the
	// frontend's window on the log (nil without a cache), with the
	// matcher of the MBits its nodes agree on (patcher).
	cache      *resultCache
	cacheGen   atomic.Uint64
	ingDrained atomic.Uint64
	drained    *drainLog
	matcher    atomic.Pointer[patchMatcher]
	// tenants holds the per-tenant quota buckets (always non-nil; quota
	// enforcement off when Config.TenantRate is 0).
	tenants *tenantTable

	stop      chan struct{} // stops the background prober
	closeOnce sync.Once
	// lifeCtx scopes work owned by the frontend itself (probe RPCs)
	// rather than by a caller; Close cancels it so in-flight probes
	// abort instead of running out their timeouts against dead peers.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	// sinkNow is cfg.Clock.Now bound once: every query's wire.Sink
	// keeps it, and binding the method value per query would allocate.
	sinkNow func() time.Time

	rngMu sync.Mutex
	rng   *rand.Rand
}

func semaphore(n int) chan struct{} {
	if n <= 0 {
		return nil
	}
	return make(chan struct{}, n)
}

// New builds a frontend with no view; call ApplyView before Query.
func New(cfg Config) *Frontend {
	if cfg.SubQueryTimeout <= 0 {
		cfg.SubQueryTimeout = 5 * time.Second
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 1
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	cfg.Clock = clock.Or(cfg.Clock)
	f := &Frontend{
		cfg:     cfg,
		admit:   semaphore(cfg.MaxInFlight),
		budget:  newHedgeBudget(hedgeBudgetFraction, hedgeBudgetBurst, cfg.Clock),
		nodes:   make(map[ring.NodeID]*handle),
		nodeLat: make(map[ring.NodeID]*latTracker),
		stop:    make(chan struct{}),
		sinkNow: cfg.Clock.Now,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	f.lifeCtx, f.lifeCancel = context.WithCancel(context.Background()) //lint:allow background — frontend lifetime root, cancelled in Close
	f.cache = newResultCache(cfg.CacheBudget)
	if f.cache != nil {
		f.drained = newDrainLog()
	}
	f.tenants = newTenantTable(cfg.TenantRate, cfg.TenantBurst, cfg.Clock)
	if cfg.ProbeInterval > 0 {
		go f.probeLoop()
	}
	return f
}

// ErrStaleView rejects a view older than the installed one. With a
// replicated control plane a deposed leader can keep publishing views
// for up to a lease after losing its majority; fencing on (Term, Epoch)
// keeps those from rolling the data plane back.
var ErrStaleView = errors.New("frontend: stale view from deposed or lagging coordinator")

// viewOlder orders views by (Term, Epoch) lexicographically: terms fence
// leader generations, epochs order one leader's publishes. Equal views
// are not "older" — re-applying the installed view is a no-op refresh.
func viewOlder(v, installed proto.View) bool {
	if v.Term != installed.Term {
		return v.Term < installed.Term
	}
	return v.Epoch < installed.Epoch
}

// ApplyView installs a membership snapshot: it rebuilds the ring
// placement and node clients. Speed estimates of retained nodes are
// preserved and their failure suspicion is cleared — the membership
// layer retaining a node is its assertion that the node deserves
// re-evaluation (§4.8 suspicion must not ratchet); its connections stay
// open, so a change of p (the paper's reconfiguration path) reconnects
// nothing. Nodes absent from the view are closed and forgotten (§4.8.3:
// a rejoining backup relearns statistics quickly).
//
// Views are fenced: once a view is installed, a view strictly older by
// (Term, Epoch) returns ErrStaleView and changes nothing.
func (f *Frontend) ApplyView(v proto.View) error {
	f.mu.RLock()
	stale := f.pl != nil && viewOlder(v, f.view)
	f.mu.RUnlock()
	if stale {
		return ErrStaleView
	}
	byRing := map[int]*ring.Ring{}
	maxRing := 0
	for _, ni := range v.Nodes {
		if ni.Ring > maxRing {
			maxRing = ni.Ring
		}
	}
	for k := 0; k <= maxRing; k++ {
		byRing[k] = ring.New()
	}
	for _, ni := range v.Nodes {
		if err := byRing[ni.Ring].Insert(ring.NodeID(ni.ID), ring.Norm(ni.Start)); err != nil {
			return fmt.Errorf("frontend: applying view: %w", err)
		}
	}
	rings := make([]*ring.Ring, 0, len(byRing))
	for k := 0; k <= maxRing; k++ {
		if byRing[k].Len() > 0 {
			rings = append(rings, byRing[k])
		}
	}
	if len(rings) == 0 {
		return fmt.Errorf("frontend: view has no nodes")
	}
	pl, err := core.NewPlacement(v.P, rings...)
	if err != nil {
		return fmt.Errorf("frontend: applying view: %w", err)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	// Re-check the fence under the write lock: a newer view may have
	// been installed while this one was building its placement.
	if f.pl != nil && viewOlder(v, f.view) {
		return ErrStaleView
	}
	// A strictly newer (Term, Epoch) moves the cache's generation:
	// placement, quarantine, or membership moved, so cached merges may
	// no longer reflect what a fan-out would return. Re-applying the
	// installed (Term, Epoch) must NOT — it proves nothing changed.
	newer := f.pl == nil || v.Term > f.view.Term || (v.Term == f.view.Term && v.Epoch > f.view.Epoch)
	seen := map[ring.NodeID]bool{}
	for _, ni := range v.Nodes {
		id := ring.NodeID(ni.ID)
		seen[id] = true
		h, ok := f.nodes[id]
		if !ok || h.addr != ni.Addr {
			if ok {
				h.client.Close()
			}
			sp := stats.NewEWMA(speedAlpha)
			sp.Set(initialSpeed)
			if f.nodeLat[id] == nil {
				f.nodeLat[id] = &latTracker{}
			}
			h = &handle{
				id: id, addr: ni.Addr, speed: sp, lat: f.nodeLat[id],
				client:  wire.NewPooledClient(ni.Addr, f.cfg.PoolSize),
				credits: semaphore(f.cfg.NodeMaxOutstanding),
			}
			f.nodes[id] = h
		}
		// The view's health verdict wins over local state.
		h.setVerdict(ni.Quarantined)
	}
	for id, h := range f.nodes {
		if !seen[id] {
			h.client.Close()
			delete(f.nodes, id)
			delete(f.nodeLat, id)
		}
	}
	f.view = v
	f.pl = pl
	if newer && f.cache != nil {
		f.cacheGen.Add(1)
	}
	// The view also carries the coordinator's drained watermark
	// (an atomic store — safe under f.mu).
	f.ObserveIngest(0, v.Drained)
	return nil
}

// View returns the installed view.
func (f *Frontend) View() proto.View {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.view
}

// Close stops the background prober and shuts all node clients.
func (f *Frontend) Close() {
	f.closeOnce.Do(func() {
		close(f.stop)
		f.lifeCancel()
	})
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, h := range f.nodes {
		h.client.Close()
	}
	f.nodes = map[ring.NodeID]*handle{}
}

// SpeedEstimates exports the EWMA speeds for membership reports.
func (f *Frontend) SpeedEstimates() map[int]float64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make(map[int]float64, len(f.nodes))
	for id, h := range f.nodes {
		if v, ok := h.speed.Value(); ok {
			out[int(id)] = v
		}
	}
	return out
}

// estimator builds the scheduling estimator from EWMAs, in-flight work,
// and the queue depth nodes report with every response (§4.8:
// outstanding queries and their expected finish times). Suspected and
// quarantined nodes are effectively unschedulable.
func (f *Frontend) estimator() core.Estimator {
	return core.EstimatorFunc(func(id ring.NodeID, size float64) float64 {
		f.mu.RLock()
		h := f.nodes[id]
		f.mu.RUnlock()
		if h == nil {
			return 1e12
		}
		st, out, depth := h.loadSnapshot()
		if st != stateHealthy {
			return 1e12 // unschedulable until an answer or a view clears it
		}
		sp, _ := h.speed.Value()
		if sp <= 0 {
			sp = initialSpeed
		}
		// Pending load: our own outstanding sub-query sizes, or the
		// node's self-reported queue depth scaled to this sub-query's
		// span — whichever is larger. The remote depth includes our own
		// in-flight work, so taking the max avoids double counting
		// while still seeing competing frontends' load.
		load := out
		if r := float64(depth) * size; r > load {
			load = r
		}
		return (load + size) / sp
	})
}

// QuerySpec is one query: its payload for the pluggable node data
// planes — Enc, the PPS encrypted query (the default), or Plain, which
// routes to the nodes' roaring-bitmap index matcher — plus the
// admission and caching options. The scheduling, hedging,
// failure-recovery, and merge pipeline is identical for both planes.
type QuerySpec struct {
	Enc   pps.Query
	Plain *proto.PlainQuery

	// Tenant names the principal the admission quota meters; empty is
	// the anonymous tenant.
	Tenant string
	// Priority selects the admission class (PriorityNormal when zero).
	Priority Priority
	// CacheControl is one of proto.CacheDefault / CacheBypass /
	// CacheRefresh; unknown values behave as CacheDefault.
	CacheControl uint8
}

// Query runs one query end to end: result-cache lookup, single-flight
// coalescing, admission (overload shed, tenant quota, in-flight
// window), scheduling, pipelined dispatch with hedging, and streaming
// merge.
//
// Cache hits bypass admission entirely — they consume no slot and no
// quota token, which is the point of having the cache. A miss that
// finds another query already fanning out for the same key, generation
// and drained watermark waits for that flight instead of dispatching
// its own; if the flight fails, the waiter falls back to a full
// execution of its own, so coalescing can only remove work.
func (f *Frontend) Query(ctx context.Context, spec QuerySpec) (Result, error) {
	t0 := f.cfg.Clock.Now()
	c := f.cache
	cc := cacheControl(spec.CacheControl)
	var key string
	var gen, asOf uint64
	if c != nil && cc != proto.CacheBypass {
		key = cacheKey(spec)
		gen = f.cacheGen.Load()
		asOf = f.ingDrained.Load()
		if cc == proto.CacheDefault {
			if ids, ok := f.cachedAnswer(key, spec, gen, asOf); ok {
				return f.cacheHit(ids, t0), nil
			}
			if fl, leader := c.startFlight(key, gen, asOf); !leader {
				select {
				case <-fl.done:
				case <-ctx.Done():
					return Result{}, ctx.Err()
				}
				if fl.err == nil {
					c.noteCoalesced()
					ids := make([]uint64, len(fl.ids))
					copy(ids, fl.ids)
					return f.cacheHit(ids, t0), nil
				}
				// The leader failed (shed, timeout, fan-out error); its
				// failure is not necessarily ours. Execute independently.
				return f.execute(ctx, spec, t0, key, gen, asOf)
			} else if fl != nil {
				res, err := f.execute(ctx, spec, t0, key, gen, asOf)
				c.finishFlight(key, fl, res.IDs, err)
				return res, err
			}
			// fl == nil: an older flight is still running; lead
			// unregistered rather than inherit its outdated result.
			return f.execute(ctx, spec, t0, key, gen, asOf)
		}
	}
	return f.execute(ctx, spec, t0, key, gen, asOf)
}

// cacheHit builds the Result of a query answered without a fan-out.
func (f *Frontend) cacheHit(ids []uint64, t0 time.Time) Result {
	return Result{IDs: ids, Delay: f.cfg.Clock.Now().Sub(t0), Source: SourceCache}
}

// execute is the uncached pipeline: admission (overload shed, tenant
// quota, in-flight window), scheduling, dispatch, merge, and — when key
// is non-empty, the query succeeded, and the generation has not moved —
// the cache store, as of the drained watermark asOf read before it.
// PriorityLow and PriorityBulk queries are shed with ErrShed — before
// consuming an admission slot — while the cluster's reported queue
// depths are over the shed high-water mark.
func (f *Frontend) execute(ctx context.Context, spec QuerySpec, t0 time.Time, key string, gen, asOf uint64) (Result, error) {
	if spec.Priority < PriorityNormal && f.overloaded() {
		f.shed.Add(1)
		return Result{}, ErrShed
	}
	admit := f.admit
	// Tenant quota: decided before queueing for a slot, against the
	// pool's current contention (all slots taken = contended), so a
	// over-quota tenant is turned away while compliant tenants queue.
	contended := admit != nil && len(admit) == cap(admit)
	if !f.tenantAdmit(spec.Tenant, spec.Priority, contended) {
		return Result{}, ErrTenantShed
	}
	if admit != nil {
		var timeout <-chan time.Time
		if f.cfg.QueueTimeout > 0 {
			tm := f.cfg.Clock.NewTimer(f.cfg.QueueTimeout)
			defer tm.Stop()
			timeout = tm.C()
		}
		select {
		case admit <- struct{}{}:
			defer func() { <-admit }()
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-timeout:
			f.shedNorm.Add(1)
			return Result{}, ErrOverloaded
		}
	}
	// Each phase ends where the next starts, so the phases sum to Delay.
	tSched := f.cfg.Clock.Now()
	queue := tSched.Sub(t0)
	f.queueLat.observe(queue)

	f.mu.RLock()
	pl := f.pl
	pq := f.cfg.PQ
	if pq == 0 || pq < f.view.P {
		pq = f.view.P
	}
	f.mu.RUnlock()
	if pl == nil {
		return Result{}, fmt.Errorf("frontend: no view installed")
	}
	est := f.estimator()
	plan, err := pl.Schedule(pq, est)
	if err != nil {
		return Result{}, fmt.Errorf("frontend: scheduling: %w", err)
	}
	if f.cfg.RangeAdjust {
		plan = pl.AdjustRanges(plan, est, 8)
	}
	if f.cfg.MaxSplits > 0 {
		plan = pl.SplitSlowest(plan, est, f.cfg.MaxSplits)
	}
	tDispatch := f.cfg.Clock.Now()

	// Dispatch all sub-queries on this goroutine (dispatch.go).
	out, derr := f.dispatch(ctx, pl, est, spec, plan.Subs)
	tMerge := f.cfg.Clock.Now()

	// Merge: the legs' ids come back in arrival order.
	limit := 0
	if spec.Plain != nil {
		limit = spec.Plain.Limit
	}
	out.IDs = mergeIDs(out.IDs, limit)
	tEnd := f.cfg.Clock.Now()
	out.Delay = tEnd.Sub(t0)
	out.Queue, out.Schedule, out.Dispatch, out.Merge = queue, tDispatch.Sub(tSched), tMerge.Sub(tDispatch), tEnd.Sub(tMerge)
	out.Source = SourceFanout
	if out.Hedges > 0 {
		out.Source = SourceHedged
	}
	if out.HedgesDenied > 0 {
		f.hdgDenied.Add(int64(out.HedgesDenied))
	}
	// A failed fan-out returns its phases too: its delay anatomy is the
	// one worth diagnosing.
	if derr != nil {
		return out, derr
	}
	// Store only results of the installed generation: if a newer view
	// installed while the fan-out ran, this merge may predate it. A
	// write delivered meanwhile needs no check: the entry is as of asOf,
	// and its next hit brings it forward.
	if f.cache != nil && key != "" && gen == f.cacheGen.Load() {
		f.cache.put(key, out.IDs, gen, asOf)
	}
	return out, nil
}
