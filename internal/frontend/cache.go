// Result cache: a memory-budgeted LRU over merged query results, keyed
// by the query's canonical bytes and fenced by a generation counter so
// asynchronous writes can never serve stale hits silently
// (docs/ECONOMICS.md).
//
// The generation is the frontend's summary of "the answer may have
// changed". It moves on exactly two events: a strictly newer view
// installs (placement or quarantine moved), or the drained watermark
// advances (records reached their nodes without an epoch bump — see
// Frontend.ObserveIngest). Every cached entry records the generation it
// was computed under; a hit requires generation equality, and a put is
// dropped when the generation moved while the query was in flight. That
// makes invalidation O(1) at write-observation time and lazy at the
// entries (they fall out on next touch or by LRU pressure), at the cost
// of flushing the whole cache per delivered write batch — the right
// trade for a read-heavy tier, and the only safe one without per-arc
// dependency tracking.
//
// Misses single-flight: concurrent queries for the same key at the same
// generation collapse onto one fan-out (the leader), and followers wait
// for its result instead of multiplying the herd by p sub-queries each.
// A follower whose leader fails falls back to its own execution, so the
// cache can slow nothing down, only shed work.
package frontend

import (
	"container/list"
	"sync"

	"roar/internal/pps"
	"roar/internal/proto"
)

// Result sources, for latency attribution (Result.Source).
const (
	// SourceCache: served from the result cache (or coalesced onto
	// another in-flight query's fan-out) without dispatching.
	SourceCache = "cache"
	// SourceFanout: a full scheduled fan-out with no hedged legs.
	SourceFanout = "fanout"
	// SourceHedged: a fan-out that launched at least one hedged leg.
	SourceHedged = "hedged"
)

// CacheStats is a point-in-time snapshot of the result cache's
// counters. Counters are cumulative since the frontend started.
type CacheStats struct {
	Hits          int64 // generation-fresh lookups served from memory
	Misses        int64 // lookups that fell through to a fan-out
	Coalesced     int64 // queries that joined another query's fan-out
	Evictions     int64 // entries dropped by the byte budget
	Invalidations int64 // entries dropped on generation mismatch
	Entries       int   // live entries
	Bytes         int64 // resident budget
}

// cacheEntry is one cached merged result.
type cacheEntry struct {
	key  string
	ids  []uint64
	gen  uint64
	size int64
}

// flight is one in-progress fan-out other queries may coalesce onto.
type flight struct {
	gen  uint64
	done chan struct{}
	ids  []uint64
	err  error
}

// resultCache is one LRU list, its key map, the single-flight table and
// the counters, all under one mutex.
type resultCache struct {
	mu      sync.Mutex
	lru     *list.List // front = most recent; values are *cacheEntry
	byKey   map[string]*list.Element
	flights map[string]*flight
	bytes   int64
	budget  int64
	st      CacheStats // Entries and Bytes are filled in by stats
}

// entryOverhead approximates the per-entry bookkeeping bytes (list
// element, map bucket share, struct) charged against the budget on top
// of key and id payload.
const entryOverhead = 96

func newResultCache(budget int64) *resultCache {
	if budget <= 0 {
		return nil
	}
	return &resultCache{
		lru:     list.New(),
		byKey:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
		budget:  budget,
	}
}

// get returns the cached ids for key at exactly generation gen. An
// entry from an older generation is removed on sight (a write was
// observed since it was stored) and counts as an invalidation plus a
// miss. The returned slice is a copy — callers own their Result.
func (c *resultCache) get(key string, gen uint64) ([]uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.st.Misses++
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != gen {
		c.removeLocked(el, e)
		c.st.Invalidations++
		c.st.Misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.st.Hits++
	ids := make([]uint64, len(e.ids))
	copy(ids, e.ids)
	return ids, true
}

// put stores a merged result computed under generation gen. A result
// bigger than the whole budget is served uncached rather than wiping
// the cache for one entry.
func (c *resultCache) put(key string, ids []uint64, gen uint64) {
	size := int64(len(key)) + 8*int64(len(ids)) + entryOverhead
	if size > c.budget {
		return
	}
	stored := make([]uint64, len(ids))
	copy(stored, ids)
	e := &cacheEntry{key: key, ids: stored, gen: gen, size: size}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.removeLocked(el, el.Value.(*cacheEntry))
	}
	c.byKey[key] = c.lru.PushFront(e)
	c.bytes += size
	for c.bytes > c.budget {
		back := c.lru.Back()
		c.removeLocked(back, back.Value.(*cacheEntry))
		c.st.Evictions++
	}
}

// removeLocked unlinks one entry.
func (c *resultCache) removeLocked(el *list.Element, e *cacheEntry) {
	c.lru.Remove(el)
	delete(c.byKey, e.key)
	c.bytes -= e.size
}

// startFlight registers a single-flight for (key, gen). The second
// return is true when the caller is the leader and must execute the
// fan-out then call finishFlight; false means another query's fan-out
// for the same key and generation is in progress and the caller should
// wait on fl.done. A flight registered under a DIFFERENT generation is
// not joinable — the waiter would inherit a result the fence already
// outdated — so the caller leads unregistered (fl == nil): it executes
// without publishing, and the stale flight finishes on its own.
func (c *resultCache) startFlight(key string, gen uint64) (fl *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.flights[key]; ok {
		if cur.gen == gen {
			return cur, false
		}
		return nil, true // stale flight in progress; lead unregistered
	}
	fl = &flight{gen: gen, done: make(chan struct{})}
	c.flights[key] = fl
	return fl, true
}

// finishFlight publishes the leader's outcome and wakes followers.
func (c *resultCache) finishFlight(key string, fl *flight, ids []uint64, err error) {
	c.mu.Lock()
	if c.flights[key] == fl {
		delete(c.flights, key)
	}
	c.mu.Unlock()
	fl.ids, fl.err = ids, err
	close(fl.done)
}

// noteCoalesced counts one follower served from a leader's fan-out.
func (c *resultCache) noteCoalesced() {
	c.mu.Lock()
	c.st.Coalesced++
	c.mu.Unlock()
}

// stats snapshots the counters.
func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Entries, st.Bytes = len(c.byKey), c.bytes
	return st
}

// cacheKey canonicalises a query's payload. Two QuerySpecs with the
// same key are guaranteed the same answer at the same generation:
// every field that reaches the nodes' matchers is folded in (data
// plane, operator, trapdoor bytes or terms, mode, threshold, limit),
// and nothing else — tenant, priority, and cache-control affect
// admission, not the answer, so they share entries.
func cacheKey(spec QuerySpec) string {
	q := spec.Enc
	if spec.Plain != nil {
		q = pps.Query{} // the plaintext plane ignores the encrypted query
	}
	return string(proto.AppendQuery(make([]byte, 0, 128), q, spec.Plain))
}

// ObserveIngest feeds the frontend the coordinator's drained watermark
// (from a view poll, an fe.put acknowledgement, or any IngestResp).
// Whenever it advances past everything observed before, the cache
// generation moves: records reached their nodes since the cached results
// were computed, so those may be stale. seq, the last accepted write, is
// ignored: a record accepted but not yet drained is on no node, so no
// fan-out can return it and no cached answer is contradicted by it.
// Monotonic — a lagging report (an old view, a slow replica) can never
// rewind the watermark or resurrect invalidated entries.
func (f *Frontend) ObserveIngest(seq, drained uint64) {
	for {
		cur := f.ingDrained.Load()
		if drained <= cur {
			return
		}
		if f.ingDrained.CompareAndSwap(cur, drained) {
			break
		}
	}
	if f.cache != nil {
		f.cacheGen.Add(1)
	}
}

// CacheStats snapshots the result cache counters (zero value when the
// cache is disabled).
func (f *Frontend) CacheStats() CacheStats {
	if f.cache == nil {
		return CacheStats{}
	}
	return f.cache.stats()
}

// memoFlags is what a sub-query of spec asks of the nodes' match memo:
// an encrypted query that this frontend's result cache may answer may be
// answered from a node's memory too, and one that refreshes the cache
// refreshes the memo. Bypass queries, plaintext queries and a frontend
// without a cache ask for nothing, and get a plain scan.
func (f *Frontend) memoFlags(spec QuerySpec) uint8 {
	if f.cache == nil || spec.Plain != nil {
		return 0
	}
	switch cacheControl(spec.CacheControl) {
	case proto.CacheDefault:
		return proto.QueryMemo
	case proto.CacheRefresh:
		return proto.QueryMemoRefill
	}
	return 0
}

// cacheControlValid keeps unknown wire values from doing something
// surprising: anything but the defined Cache* constants behaves as
// CacheDefault.
func cacheControl(cc uint8) uint8 {
	switch cc {
	case proto.CacheBypass, proto.CacheRefresh:
		return cc
	default:
		return proto.CacheDefault
	}
}
