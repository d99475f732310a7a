// Package node implements a ROAR data server: it stores encrypted
// metadata replicas for its ring range and matches sub-queries against
// them with the §5.6.3 producer/consumer pipeline. A node is oblivious
// to the rest of the ring — it just serves the arc it is told to serve —
// which is what makes ROAR reconfiguration local and cheap.
package node

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"roar/internal/index"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/store"
	"roar/internal/wire"
)

// Config parameterises a node.
type Config struct {
	// Params are the public PPS matching parameters (no key material).
	Params pps.ServerParams
	// MatchThreads is the matching-thread count (§5.6.3; 0 = 1).
	MatchThreads int
	// ObjectsPerSec, when positive, throttles matching to emulate a
	// calibrated hardware profile (Table 7.1); 0 matches at full speed.
	ObjectsPerSec float64
	// FixedQueryCost adds a constant per-sub-query cost (thread start,
	// request parsing — the fixed overheads of §2 that do not depend on
	// data size and cap throughput as p grows). Zero disables it.
	FixedQueryCost time.Duration
	// Index, when non-nil, serves plaintext queries (QueryReq.Plain)
	// through the roaring-bitmap data plane alongside the PPS scan.
	// SetIndex attaches one after construction.
	Index *index.Index
}

// Node is one data server. Create with New, expose with Serve.
type Node struct {
	cfg     Config
	matcher *pps.Matcher
	store   *store.Store

	// The two data planes behind the common Matcher interface. enc is
	// always present; plain holds an *indexMatcher (atomically swapped
	// by SetIndex) or nil when no index is attached.
	enc   Matcher
	plain atomic.Pointer[indexMatcher]

	queries   atomic.Int64
	scanned   atomic.Int64
	busyNanos atomic.Int64
	canceled  atomic.Int64 // sub-queries aborted by caller cancellation
	inflight  atomic.Int64
	peak      atomic.Int64 // high-water mark of concurrent queries
	delay     atomic.Int64 // injected per-query latency (tests/experiments)
	viewEpoch atomic.Int64 // newest view epoch observed (epoch fence)
	started   time.Time
}

// New builds a node.
func New(cfg Config) (*Node, error) {
	m, err := pps.NewMatcher(cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	if cfg.MatchThreads <= 0 {
		cfg.MatchThreads = 1
	}
	n := &Node{cfg: cfg, matcher: m, store: store.New(), started: time.Now()}
	n.enc = &storeMatcher{
		store:         n.store,
		matcher:       m,
		threads:       cfg.MatchThreads,
		objectsPerSec: cfg.ObjectsPerSec,
	}
	if cfg.Index != nil {
		n.SetIndex(cfg.Index)
	}
	return n, nil
}

// Store exposes the underlying record store (tests and in-process
// harnesses load data directly through it).
func (n *Node) Store() *store.Store { return n.store }

// SetIndex attaches (or replaces) the plaintext index served for
// QueryReq.Plain sub-queries. Safe to call while serving.
func (n *Node) SetIndex(ix *index.Index) {
	if ix == nil {
		n.plain.Store(nil)
		return
	}
	n.plain.Store(&indexMatcher{ix: ix})
}

// Index returns the attached plaintext index, if any.
func (n *Node) Index() *index.Index {
	if im := n.plain.Load(); im != nil {
		return im.ix
	}
	return nil
}

// SetDelay injects d of extra latency into every subsequent Query —
// a slow-but-alive node, as opposed to a killed one. The sleep honours
// the caller's context, so cancelled (hedged-away) sub-queries abort
// promptly. Tests and the tail-latency experiments drive this at
// runtime; d = 0 removes the delay.
func (n *Node) SetDelay(d time.Duration) { n.delay.Store(int64(d)) }

// QueueDepth reports the number of sub-queries currently executing.
func (n *Node) QueueDepth() int { return int(n.inflight.Load()) }

// Query matches the encrypted query against stored objects in (lo, hi].
func (n *Node) Query(ctx context.Context, req proto.QueryReq) (proto.QueryResp, error) {
	start := time.Now()
	cur := n.inflight.Add(1)
	defer n.inflight.Add(-1)
	for {
		p := n.peak.Load()
		if cur <= p || n.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	if n.cfg.FixedQueryCost > 0 {
		time.Sleep(n.cfg.FixedQueryCost)
	}
	if d := time.Duration(n.delay.Load()); d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			n.canceled.Add(1)
			return proto.QueryResp{}, ctx.Err()
		}
	}
	m := n.enc
	if req.Plain != nil {
		im := n.plain.Load()
		if im == nil {
			return proto.QueryResp{}, ErrNoIndex
		}
		m = im
	}
	ids, scanned, err := m.MatchArc(ctx, req, ring.Norm(req.Lo), ring.Norm(req.Hi))
	if err != nil {
		if ctx.Err() != nil {
			n.canceled.Add(1)
		}
		return proto.QueryResp{}, err
	}
	el := time.Since(start)
	n.queries.Add(1)
	n.scanned.Add(int64(scanned))
	n.busyNanos.Add(int64(el))
	// Depth is sampled at ARRIVAL (cur was read when this sub-query
	// entered), excluding the sub-query itself: the load it queued
	// behind. Sampling at completion instead systematically reads ~0
	// under closed-loop load — sub-queries admitted together finish
	// together, so the last response of every wave sees a drained node
	// and the frontends' last-writer-wins gauges sit at the trough of
	// the sawtooth exactly when the node is saturated.
	depth := int(cur) - 1
	if depth < 0 {
		depth = 0
	}
	return proto.QueryResp{IDs: ids, Scanned: scanned, MatchNanos: int64(el), QueueDepth: depth}, nil
}

// StaleEpochError rejects an epoch-fenced put placed under a view older
// than the newest this node has observed: the sender's routing may be
// wrong, so the records are refused rather than stored where queries
// will never look for them.
type StaleEpochError struct {
	Got     int // the put's fencing epoch
	Current int // the node's newest observed epoch
}

func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("node: stale view epoch %d (node has observed %d); re-pull the view", e.Got, e.Current)
}

// observeEpoch advances the node's observed view epoch (monotonic) and
// returns the newest value. A node never trusts an older epoch again:
// the fence only ratchets forward.
func (n *Node) observeEpoch(e int) int {
	for {
		cur := n.viewEpoch.Load()
		if int64(e) <= cur {
			return int(cur)
		}
		if n.viewEpoch.CompareAndSwap(cur, int64(e)) {
			return e
		}
	}
}

// Put stores replica records. A fenced request (Epoch > 0) is rejected
// with StaleEpochError when its epoch is older than the newest this
// node has observed; an unfenced request (Epoch == 0, a bulk loader)
// is always accepted. Insert dedups by record ID with last-write-wins,
// so re-delivery of the same records is a no-op — the idempotent-apply
// half of the ingest pipeline's at-least-once contract. Put is the one
// receiver of a decoded PutReq, whose records are views of the request
// body: Insert copies what the store keeps, and nothing here keeps the
// records past the return, so the wire may reuse the body then.
func (n *Node) Put(req proto.PutReq) (proto.PutResp, error) {
	if req.Epoch > 0 {
		if cur := n.observeEpoch(req.Epoch); req.Epoch < cur {
			return proto.PutResp{}, &StaleEpochError{Got: req.Epoch, Current: cur}
		}
	}
	n.store.Insert(req.Records...)
	return proto.PutResp{Stored: len(req.Records), Total: n.store.Len()}, nil
}

// Retain applies a range/p change, dropping records outside the new
// stored set (§4.5). A retain carrying the publishing view's epoch
// advances the fence, so epoch-fenced puts routed under older views
// start bouncing the moment the new placement lands.
func (n *Node) Retain(req proto.RetainReq) proto.RetainResp {
	if req.Epoch > 0 {
		n.observeEpoch(req.Epoch)
	}
	dropped := n.store.RetainStored(ring.NewArc(ring.Norm(req.Start), req.Length), req.P)
	return proto.RetainResp{Dropped: dropped, Remaining: n.store.Len()}
}

// Stats reports counters.
func (n *Node) Stats() proto.StatsResp {
	memo := n.store.MemoStats()
	return proto.StatsResp{
		Objects:         n.store.Len(),
		Queries:         n.queries.Load(),
		Scanned:         n.scanned.Load(),
		BusyNanos:       n.busyNanos.Load(),
		UptimeSecs:      time.Since(n.started).Seconds(),
		PeakConcurrency: n.peak.Load(),
		Canceled:        n.canceled.Load(),

		MemoLookups:          memo.Lookups,
		MemoBucketsReused:    memo.BucketsReused,
		MemoBucketsRescanned: memo.BucketsRescanned,
		MemoEvictions:        memo.Evictions,
		MemoEntries:          memo.Entries,
		MemoBytes:            memo.Bytes,
	}
}

// Serve exposes the node over TCP on addr ("127.0.0.1:0" for ephemeral).
// The hot methods (query, put, ping) take binary request bodies; retain
// and stats take JSON.
func (n *Node) Serve(addr string) (*wire.Server, error) {
	d := wire.NewDispatcher()
	d.Register(proto.MNodeQuery, func(ctx context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.QueryReq
		if err := body.Decode(&req); err != nil {
			return nil, fmt.Errorf("node: bad query request: %w", err)
		}
		return n.Query(ctx, req)
	})
	d.Register(proto.MNodePut, func(_ context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.PutReq
		if err := body.Decode(&req); err != nil {
			return nil, fmt.Errorf("node: bad put request: %w", err)
		}
		return n.Put(req)
	})
	d.Register(proto.MNodeRetain, func(_ context.Context, _ string, body wire.Body) (interface{}, error) {
		var req proto.RetainReq
		if err := body.Decode(&req); err != nil {
			return nil, fmt.Errorf("node: bad retain request: %w", err)
		}
		return n.Retain(req), nil
	})
	d.Register(proto.MNodeStats, func(_ context.Context, _ string, _ wire.Body) (interface{}, error) {
		return n.Stats(), nil
	})
	d.Register(proto.MNodePing, func(ctx context.Context, _ string, _ wire.Body) (interface{}, error) {
		// The injected delay models a stalled machine, which answers
		// probes as slowly as queries — a recovery probe must not see
		// a healthy node while Query traffic is still timing out.
		if d := time.Duration(n.delay.Load()); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return proto.PingResp{QueueDepth: n.QueueDepth(), MBits: n.cfg.Params.MBits}, nil
	})
	return wire.Serve(addr, d.Handle)
}
