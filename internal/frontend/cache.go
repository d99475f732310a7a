// Result cache: a memory-budgeted, sharded LRU over merged query
// results, keyed by the query's canonical bytes and fenced by a
// generation counter so asynchronous writes can never serve stale hits
// silently (docs/ECONOMICS.md).
//
// The generation is the frontend's summary of "the data may have
// changed": it advances when a strictly newer view installs (placement
// or quarantine moved) and when the ingest watermarks advance (PR 9's
// async write path delivers without an epoch bump — see
// Frontend.ObserveIngest). Every cached entry records the generation it
// was computed under; a hit requires generation equality, and a Put is
// dropped when the generation moved while the query was in flight. That
// makes invalidation O(1) at write-observation time and lazy at the
// entries (they fall out on next touch or by LRU pressure), at the cost
// of flushing the whole cache per observed write batch — the right
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
	"encoding/binary"
	"sync"
	"sync/atomic"

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
// counters, attached to every Result so bench artifacts can attribute
// latency without a second API call. Counters are cumulative since the
// frontend started.
type CacheStats struct {
	Hits          int64 // generation-fresh lookups served from memory
	Misses        int64 // lookups that fell through to a fan-out
	Coalesced     int64 // queries that joined another query's fan-out
	Evictions     int64 // entries dropped by the byte budget
	Invalidations int64 // entries dropped on generation mismatch
	Entries       int   // live entries across all shards
	Bytes         int64 // resident budget across all shards
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

// cacheShard is one lock domain of the cache: an LRU list plus the
// single-flight table for keys hashing here.
type cacheShard struct {
	mu      sync.Mutex
	lru     *list.List // front = most recent; values are *cacheEntry
	byKey   map[string]*list.Element
	bytes   int64
	budget  int64
	flights map[string]*flight
}

// resultCache is the sharded whole: shard count fixed at build time,
// budget split evenly. Stats are lock-free atomics (read on every
// query result).
type resultCache struct {
	shards []*cacheShard

	hits          atomic.Int64
	misses        atomic.Int64
	coalesced     atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	entries       atomic.Int64
	resident      atomic.Int64
}

// cacheShards is the result cache's lock-shard count.
const cacheShards = 16

// entryOverhead approximates the per-entry bookkeeping bytes (list
// element, map bucket share, struct) charged against the budget on top
// of key and id payload.
const entryOverhead = 96

func newResultCache(budget int64, shards int) *resultCache {
	if budget <= 0 {
		return nil
	}
	per := budget / int64(shards)
	if per <= 0 {
		per = 1
	}
	c := &resultCache{shards: make([]*cacheShard, shards)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			lru:     list.New(),
			byKey:   make(map[string]*list.Element),
			budget:  per,
			flights: make(map[string]*flight),
		}
	}
	return c
}

// shardFor hashes the key (FNV-1a) onto a shard.
func (c *resultCache) shardFor(key string) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return c.shards[h%uint64(len(c.shards))]
}

// get returns the cached ids for key at exactly generation gen. An
// entry from an older generation is removed on sight (a write was
// observed since it was stored) and counts as an invalidation plus a
// miss. The returned slice is a copy — callers own their Result.
func (c *resultCache) get(key string, gen uint64) ([]uint64, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.byKey[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != gen {
		s.removeLocked(el, e)
		s.mu.Unlock()
		c.invalidations.Add(1)
		c.entries.Add(-1)
		c.resident.Add(-e.size)
		c.misses.Add(1)
		return nil, false
	}
	s.lru.MoveToFront(el)
	ids := make([]uint64, len(e.ids))
	copy(ids, e.ids)
	s.mu.Unlock()
	c.hits.Add(1)
	return ids, true
}

// put stores a merged result computed under generation gen. Oversized
// results (bigger than a whole shard's budget) are served uncached
// rather than wiping the shard for one entry.
func (c *resultCache) put(key string, ids []uint64, gen uint64) {
	size := int64(len(key)) + 8*int64(len(ids)) + entryOverhead
	s := c.shardFor(key)
	if size > s.budget {
		return
	}
	stored := make([]uint64, len(ids))
	copy(stored, ids)
	e := &cacheEntry{key: key, ids: stored, gen: gen, size: size}

	var evicted, freed int64
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		old := el.Value.(*cacheEntry)
		s.removeLocked(el, old)
		c.entries.Add(-1)
		c.resident.Add(-old.size)
	}
	s.byKey[key] = s.lru.PushFront(e)
	s.bytes += size
	for s.bytes > s.budget {
		back := s.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*cacheEntry)
		s.removeLocked(back, victim)
		evicted++
		freed += victim.size
	}
	s.mu.Unlock()
	c.entries.Add(1 - evicted)
	c.resident.Add(size - freed)
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// removeLocked unlinks one entry; the caller adjusts the atomics.
func (s *cacheShard) removeLocked(el *list.Element, e *cacheEntry) {
	s.lru.Remove(el)
	delete(s.byKey, e.key)
	s.bytes -= e.size
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
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.flights[key]; ok {
		if cur.gen == gen {
			return cur, false
		}
		return nil, true // stale flight in progress; lead unregistered
	}
	fl = &flight{gen: gen, done: make(chan struct{})}
	s.flights[key] = fl
	return fl, true
}

// finishFlight publishes the leader's outcome and wakes followers.
func (c *resultCache) finishFlight(key string, fl *flight, ids []uint64, err error) {
	s := c.shardFor(key)
	s.mu.Lock()
	if s.flights[key] == fl {
		delete(s.flights, key)
	}
	s.mu.Unlock()
	fl.ids, fl.err = ids, err
	close(fl.done)
}

// noteCoalesced counts one follower served from a leader's fan-out.
func (c *resultCache) noteCoalesced() { c.coalesced.Add(1) }

// stats snapshots the counters.
func (c *resultCache) stats() CacheStats {
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Coalesced:     c.coalesced.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       int(c.entries.Load()),
		Bytes:         c.resident.Load(),
	}
}

// cacheKey canonicalises a query's payload. Two QuerySpecs with the
// same key are guaranteed the same answer at the same generation:
// every field that reaches the nodes' matchers is folded in (data
// plane, operator, trapdoor bytes or terms, mode, threshold, limit),
// and nothing else — tenant, priority, and cache-control affect
// admission, not the answer, so they share entries.
func cacheKey(spec QuerySpec) string {
	b := make([]byte, 0, 128)
	if spec.Plain != nil {
		p := spec.Plain
		b = append(b, 1, p.Mode)
		b = binary.AppendVarint(b, int64(p.MinMatch))
		b = binary.AppendVarint(b, int64(p.Limit))
		b = binary.AppendUvarint(b, uint64(len(p.Terms)))
		for _, t := range p.Terms {
			b = binary.AppendUvarint(b, uint64(len(t)))
			b = append(b, t...)
		}
		return string(b)
	}
	return string(spec.Enc.AppendKey(append(b, 0)))
}

// ObserveIngest feeds the frontend an ingest-watermark observation
// (from a view pull, an fe.put acknowledgement, or any IngestResp).
// Whenever either watermark advances past everything observed before,
// the cache generation bumps: records became durable or were delivered
// since the cached results were computed, so they may be stale. Widely
// monotonic — a lagging report (an old view, a slow replica) can never
// rewind the watermarks or resurrect invalidated entries.
func (f *Frontend) ObserveIngest(seq, drained uint64) {
	bump := false
	for {
		cur := f.ingSeq.Load()
		if seq <= cur {
			break
		}
		if f.ingSeq.CompareAndSwap(cur, seq) {
			bump = true
			break
		}
	}
	for {
		cur := f.ingDrained.Load()
		if drained <= cur {
			break
		}
		if f.ingDrained.CompareAndSwap(cur, drained) {
			bump = true
			break
		}
	}
	if bump && f.cache != nil {
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
