// Package frontend implements the ROAR front-end server (§4.8): it
// receives client queries, admits them through a bounded in-flight
// window, splits them into sub-queries with the Algorithm 1 scheduler,
// dispatches them over pooled TCP connections under a per-node
// outstanding-credit cap (backpressure: a slow node stalls only its own
// legs), hedges slow sub-queries onto replica nodes before the failure
// timer fires (first response wins, the loser is cancelled down to the
// remote matcher), detects node failures through per-sub-query timers,
// re-dispatches around failures with the §4.4 fallback, merges the
// sub-responses, and maintains per-server processing-speed EWMAs from
// observed completions. Failure suspicion is revocable: suspected nodes
// are probed in the background and rescheduled once they answer
// (healthy → suspected → recovering, see health.go), instead of the
// seed's permanent one-way failure mark.
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

	"roar/internal/core"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/stats"
	"roar/internal/wire"
)

const (
	// defaultProbeInterval is the recovery-probe cadence when none is
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
	// HedgeDelay launches a speculative replica re-dispatch for a
	// sub-query still unanswered after this long (must be below
	// SubQueryTimeout to matter). 0 disables hedging unless
	// HedgeQuantile produces an adaptive delay.
	HedgeDelay time.Duration
	// HedgeQuantile, in (0, 1), derives the hedge delay from that
	// quantile of recently observed sub-query latencies (e.g. 0.95
	// hedges the slowest ~5%). HedgeDelay then acts as the floor and
	// the cold-start value. 0 uses the fixed HedgeDelay only.
	HedgeQuantile float64
	// ProbeInterval is the cadence of the background probe that
	// re-evaluates suspected nodes. 0 defaults to 500ms; negative
	// disables probing (suspicion then clears only via view retention
	// or a successful hedge contact).
	ProbeInterval time.Duration

	// HedgeBudgetFraction rate-limits hedging: every primary sub-query
	// dispatch earns this many tokens, every hedged replica leg spends
	// one, so hedged legs stay ≤ fraction × primaries + burst even when
	// the whole cluster is slow (Kraus et al.: hedging only pays off
	// rate-limited). 0 uses the default 0.05 (≤5% of sub-queries);
	// negative disables the budget entirely.
	HedgeBudgetFraction float64
	// HedgeBudgetBurst is the token-bucket capacity and initial
	// balance. 0 uses the default 4.
	HedgeBudgetBurst float64
	// HedgeMaxPerQuery caps hedged replica legs launched for a single
	// query. 0 = unlimited (the global budget still applies).
	HedgeMaxPerQuery int
	// ShedHighWater, when positive, is the mean node-reported queue
	// depth at which the frontend declares overload: hedging pauses and
	// PriorityLow admissions are rejected with ErrShed. 0 disables.
	ShedHighWater int

	// CacheBudget bounds the result cache's resident bytes (keys, id
	// payloads, and per-entry overhead). 0 disables caching entirely.
	CacheBudget int64
	// TenantRate is each tenant's admission-quota refill, in queries
	// per second. 0 disables quota enforcement (per-tenant counters are
	// kept regardless); see tenant.go for the work-conserving semantics.
	TenantRate float64
	// TenantBurst is the quota bucket capacity (default max(rate, 8)).
	TenantBurst float64
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
	HedgesDenied int           // hedges suppressed by budget, cap, or overload
	HedgeWins    int           // hedges that answered before the primary
	Scanned      int           // objects scanned across nodes
	// Source attributes the answer: SourceCache (result cache or
	// coalesced fan-out), SourceHedged (fan-out with hedged legs), or
	// SourceFanout. Empty only on error.
	Source string
	// Cache snapshots the result-cache counters at completion (zero
	// value when caching is disabled).
	Cache CacheStats
}

// Frontend schedules and executes queries against a node view.
type Frontend struct {
	cfg    Config        // defaults resolved in New; read-only afterwards
	admit  chan struct{} // admission slots (nil = unlimited)
	budget *hedgeBudget  // hedge rate limit; nil = un-budgeted
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
	hdgDenied atomic.Int64  // hedges denied (budget/cap/overload) since the last report
	queueLat  latTracker    // admission-queue waits of admitted queries (report digest)
	reportSeq atomic.Uint64 // health report sequence numbers

	// Result cache (nil when Config.CacheBudget is 0) and its fence.
	// cacheGen advances on every strictly-newer view install and every
	// ingest-watermark advance (ObserveIngest); entries from older
	// generations are unservable. ingSeq/ingDrained are the high-water
	// ingest observations backing that monotonicity.
	cache      *resultCache
	cacheGen   atomic.Uint64
	ingSeq     atomic.Uint64
	ingDrained atomic.Uint64
	// tenants is the per-tenant quota and accounting ledger (always
	// non-nil; quota enforcement off when Config.TenantRate is 0).
	tenants *tenantTable

	stop      chan struct{} // stops the background prober
	closeOnce sync.Once
	// lifeCtx scopes work owned by the frontend itself (probe RPCs)
	// rather than by a caller; Close cancels it so in-flight probes
	// abort instead of running out their timeouts against dead peers.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc

	// Injected clock. All latency measurement and timer arming in the
	// execute/hedge/probe paths goes through these three so tests can
	// drive the pipeline on a fake clock; the wall-clock defaults in
	// New are the package's only sanctioned time touchpoints.
	nowFn   func() time.Time
	timerFn func(time.Duration) *time.Timer
	afterFn func(time.Duration) <-chan time.Time

	rngMu sync.Mutex
	rng   *rand.Rand

	statMu sync.Mutex
	phases phaseStats // DelayBreakdown's bounded per-phase delay history
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
	if cfg.HedgeBudgetFraction == 0 {
		cfg.HedgeBudgetFraction = defaultHedgeBudgetFraction
	}
	if cfg.HedgeBudgetBurst <= 0 {
		cfg.HedgeBudgetBurst = defaultHedgeBudgetBurst
	}
	f := &Frontend{
		cfg:     cfg,
		admit:   semaphore(cfg.MaxInFlight),
		nodes:   make(map[ring.NodeID]*handle),
		nodeLat: make(map[ring.NodeID]*latTracker),
		stop:    make(chan struct{}),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.HedgeBudgetFraction > 0 {
		f.budget = newHedgeBudget(cfg.HedgeBudgetFraction, cfg.HedgeBudgetBurst, nil)
	}
	f.nowFn = time.Now                                                 //lint:allow wallclock — clock-injection default
	f.timerFn = time.NewTimer                                          //lint:allow wallclock — clock-injection default
	f.afterFn = time.After                                             //lint:allow wallclock — clock-injection default
	f.lifeCtx, f.lifeCancel = context.WithCancel(context.Background()) //lint:allow background — frontend lifetime root, cancelled in Close
	f.cache = newResultCache(cfg.CacheBudget, cacheShards)
	f.tenants = newTenantTable(cfg.TenantRate, cfg.TenantBurst, func() time.Time { return f.nowFn() })
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
	// A strictly newer (Term, Epoch) invalidates the result cache:
	// placement, quarantine, or membership moved, so cached merges may
	// no longer reflect what a fan-out would return. Re-applying the
	// installed view (the harness's SyncView refresh, a poll answering
	// with the same epoch) must NOT — it proves nothing changed.
	newer := f.pl == nil || v.Term > f.view.Term || (v.Term == f.view.Term && v.Epoch > f.view.Epoch)
	seen := map[ring.NodeID]bool{}
	for _, ni := range v.Nodes {
		id := ring.NodeID(ni.ID)
		seen[id] = true
		if h, ok := f.nodes[id]; ok && h.addr == ni.Addr {
			// The view's health verdict wins over local state: a
			// quarantine demotes the node whatever we observed, and a
			// retained, un-quarantined node deserves re-evaluation.
			if ni.Quarantined {
				h.setQuarantined()
			} else {
				h.clearSuspicion()
			}
			continue
		}
		if h, ok := f.nodes[id]; ok {
			h.client.Close()
		}
		sp := stats.NewEWMA(speedAlpha)
		sp.Set(initialSpeed)
		if f.nodeLat[id] == nil {
			f.nodeLat[id] = &latTracker{}
		}
		h := &handle{
			id: id, addr: ni.Addr, speed: sp, lat: f.nodeLat[id],
			client:  wire.NewClientWithConfig(ni.Addr, wire.ClientConfig{PoolSize: f.cfg.PoolSize}),
			credits: semaphore(f.cfg.NodeMaxOutstanding),
		}
		if ni.Quarantined {
			h.state = stateQuarantined
		}
		f.nodes[id] = h
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
	// The view also carries the coordinator's ingest watermarks; feed
	// them through the same fence (atomics — safe under f.mu).
	f.ObserveIngest(v.Ingested, v.Drained)
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
// outstanding queries and their expected finish times). Suspected
// nodes are effectively unschedulable; recovering nodes compete
// normally so they are actually re-used after recovery.
func (f *Frontend) estimator() core.Estimator {
	return core.EstimatorFunc(func(id ring.NodeID, size float64) float64 {
		f.mu.RLock()
		h := f.nodes[id]
		f.mu.RUnlock()
		if h == nil {
			return 1e12
		}
		st, out, depth := h.loadSnapshot()
		if st == stateSuspected || st == stateQuarantined {
			return 1e12 // unschedulable until a probe or view clears it
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

	// Tenant names the accounting principal for quota and telemetry;
	// empty is the anonymous tenant.
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
// quota token, which is the point of having the cache. A miss that finds another query already fanning out for
// the same key and generation waits for that flight instead of
// dispatching its own; if the flight fails, the waiter falls back to a
// full execution of its own, so coalescing can only remove work.
func (f *Frontend) Query(ctx context.Context, spec QuerySpec) (Result, error) {
	t0 := f.nowFn()
	c := f.cache
	cc := cacheControl(spec.CacheControl)
	var key string
	var gen uint64
	if c != nil && cc != proto.CacheBypass {
		key = cacheKey(spec)
		gen = f.cacheGen.Load()
		if cc == proto.CacheDefault {
			if ids, ok := c.get(key, gen); ok {
				f.tenants.noteCacheHit(spec.Tenant)
				return f.cacheHit(ids, t0), nil
			}
			f.tenants.noteCacheMiss(spec.Tenant)
			if fl, leader := c.startFlight(key, gen); !leader {
				select {
				case <-fl.done:
				case <-ctx.Done():
					return Result{}, ctx.Err()
				}
				if fl.err == nil {
					c.noteCoalesced()
					f.tenants.noteCacheHit(spec.Tenant)
					ids := make([]uint64, len(fl.ids))
					copy(ids, fl.ids)
					return f.cacheHit(ids, t0), nil
				}
				// The leader failed (shed, timeout, fan-out error); its
				// failure is not necessarily ours. Execute independently.
				return f.execute(ctx, spec, t0, key, gen)
			} else if fl != nil {
				res, err := f.execute(ctx, spec, t0, key, gen)
				c.finishFlight(key, fl, res.IDs, err)
				return res, err
			}
			// fl == nil: a stale-generation flight is still draining;
			// lead unregistered rather than inherit its fenced result.
			return f.execute(ctx, spec, t0, key, gen)
		}
		f.tenants.noteCacheMiss(spec.Tenant) // CacheRefresh: forced miss
	}
	return f.execute(ctx, spec, t0, key, gen)
}

// cacheHit builds the Result of a query answered without a fan-out and
// records its delay.
func (f *Frontend) cacheHit(ids []uint64, t0 time.Time) Result {
	delay := f.nowFn().Sub(t0)
	f.statMu.Lock()
	f.phases.hit.add(delay)
	f.statMu.Unlock()
	return Result{IDs: ids, Delay: delay, Source: SourceCache, Cache: f.cache.stats()}
}

// execute is the uncached pipeline: admission (overload shed, tenant
// quota, in-flight window), scheduling, dispatch, merge, and — when key
// is non-empty, the query succeeded, and the generation fence has not
// moved — the cache store. PriorityLow and PriorityBulk queries are
// shed with ErrShed — before consuming an admission slot — while the
// cluster's reported queue depths are over the shed high-water mark.
func (f *Frontend) execute(ctx context.Context, spec QuerySpec, t0 time.Time, key string, gen uint64) (Result, error) {
	if spec.Priority < PriorityNormal && f.overloaded() {
		f.shed.Add(1)
		f.tenants.noteShed(spec.Tenant)
		return Result{}, ErrShed
	}
	admit := f.admit
	// Tenant quota: decided before queueing for a slot, against the
	// pool's current contention (all slots taken = contended), so a
	// over-quota tenant is turned away while compliant tenants queue.
	contended := admit != nil && len(admit) == cap(admit)
	if !f.tenantAdmit(spec.Tenant, spec.Priority, contended) {
		f.tenants.noteShed(spec.Tenant)
		return Result{}, ErrTenantShed
	}
	if admit != nil {
		var timeout <-chan time.Time
		if f.cfg.QueueTimeout > 0 {
			tm := f.timerFn(f.cfg.QueueTimeout)
			defer tm.Stop()
			timeout = tm.C
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
	queueDur := f.nowFn().Sub(t0)
	f.queueLat.observe(queueDur)
	f.tenants.noteAdmitted(spec.Tenant)

	tSched := f.nowFn()
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
	suspected := f.suspectedSet()

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
	if len(suspected) > 0 {
		f.rngMu.Lock()
		plan, err = pl.RepairPlan(plan, suspected, est, f.rng)
		f.rngMu.Unlock()
		if err != nil {
			return Result{}, fmt.Errorf("frontend: repairing plan: %w", err)
		}
	}
	schedDur := f.nowFn().Sub(tSched)

	// Dispatch all sub-queries on this goroutine (dispatch.go).
	t1 := f.nowFn()
	out, derr := f.dispatch(ctx, pl, est, spec, plan.Subs)
	dispatchDur := f.nowFn().Sub(t1)

	// Merge: the legs' ids come back in arrival order.
	t2 := f.nowFn()
	limit := 0
	if spec.Plain != nil {
		limit = spec.Plain.Limit
	}
	out.IDs = mergeIDs(out.IDs, limit)
	mergeDur := f.nowFn().Sub(t2)

	out.Delay = f.nowFn().Sub(t0)
	out.Queue, out.Schedule, out.Dispatch, out.Merge = queueDur, schedDur, dispatchDur, mergeDur
	out.Source = SourceFanout
	if out.Hedges > 0 {
		out.Source = SourceHedged
	}
	if f.cache != nil {
		out.Cache = f.cache.stats()
	}
	if out.HedgesDenied > 0 {
		f.hdgDenied.Add(int64(out.HedgesDenied))
	}
	// Record the phase breakdown before the error check: failed queries
	// are exactly the ones whose delay anatomy the breakdown must not
	// undercount.
	f.statMu.Lock()
	f.phases.queue.add(queueDur)
	f.phases.schedule.add(schedDur)
	f.phases.dispatch.add(dispatchDur)
	f.phases.merge.add(mergeDur)
	f.phases.total.add(out.Delay)
	f.statMu.Unlock()
	if derr != nil {
		return out, derr
	}
	// Store only results still provably current: if the generation
	// moved while the fan-out ran (a view installed, a write was
	// observed), this merge may predate the change — serving it later
	// would be exactly the stale hit the fence exists to prevent.
	if f.cache != nil && key != "" && gen == f.cacheGen.Load() {
		f.cache.put(key, out.IDs, gen)
	}
	return out, nil
}
