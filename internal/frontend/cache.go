// Result cache: a memory-budgeted LRU over merged query results, keyed
// by the query's canonical bytes, so asynchronous writes can never serve
// stale hits silently (docs/ECONOMICS.md). Two fences keep an entry
// honest:
//
//   - The generation moves when a strictly newer view installs
//     (placement or quarantine moved). An entry from another generation
//     is dropped on sight: which nodes answer for which arcs changed.
//   - The drained watermark (Frontend.ObserveIngest) is the last log
//     sequence delivered to every owning node. Every entry records asOf,
//     the watermark read before its fan-out started. A hit at a higher
//     watermark brings the entry forward instead of dropping it: the
//     records drained since asOf, read from the coordinator's log
//     (drainlog.go), are matched against the entry's own encrypted
//     query, and each id written there leaves the answer and returns if
//     its last write matches. Where that cannot be done (no log source,
//     nodes that have not reported one matching parameter, a log window
//     that no longer reaches back to asOf), the entry is dropped as a
//     newer view drops it.
//
// Misses single-flight: concurrent queries for the same key at the same
// generation and watermark collapse onto one fan-out (the leader), and
// followers wait for its result instead of multiplying the herd by p
// sub-queries each. A follower whose leader fails falls back to its own
// execution, so the cache can slow nothing down, only shed work.
package frontend

import (
	"container/list"
	"slices"
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
	Hits          int64 // lookups served from memory, patched ones included
	Misses        int64 // lookups that fell through to a fan-out
	Coalesced     int64 // queries that joined another query's fan-out
	Evictions     int64 // entries dropped by the byte budget
	Invalidations int64 // entries dropped on a lookup: a newer view, or no way to patch
	Patched       int64 // entries a hit brought forward over drained records
	Fences        int64 // generation moves (view installs)
	Entries       int   // live entries
	Bytes         int64 // resident budget
}

// cacheEntry is one cached merged result. It is never written once
// stored: a patch stores a new entry in its place, so a lookup may read
// one outside the lock.
type cacheEntry struct {
	key  string
	ids  []uint64
	gen  uint64
	asOf uint64 // drained watermark read before the answer was computed
	size int64
}

// flight is one in-progress fan-out other queries may coalesce onto.
type flight struct {
	gen, asOf uint64
	done      chan struct{}
	ids       []uint64
	err       error
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

// get looks key up at generation gen and drained watermark w. A hit
// returns a copy of the ids (callers own their Result). An entry from
// another generation is removed and counts as an invalidation plus a
// miss. An entry computed before w is returned as stale, uncounted: the
// caller brings it forward (patched) or drops it (dropStale).
func (c *resultCache) get(key string, gen, w uint64) (ids []uint64, hit bool, stale *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.st.Misses++
		return nil, false, nil
	}
	e := el.Value.(*cacheEntry)
	switch {
	case e.gen != gen:
		c.removeLocked(el, e)
		c.st.Invalidations++
		c.st.Misses++
		return nil, false, nil
	case e.asOf < w:
		return nil, false, e
	}
	c.lru.MoveToFront(el)
	c.st.Hits++
	return slices.Clone(e.ids), true, nil
}

// patched replaces stale, if it is still its key's entry, with its
// answer as of watermark asOf, charges the new size to the budget and
// counts a patched hit.
func (c *resultCache) patched(stale *cacheEntry, ids []uint64, asOf uint64) {
	e := &cacheEntry{key: stale.key, ids: ids, gen: stale.gen, asOf: asOf, size: entrySize(stale.key, ids)}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.Hits++
	c.st.Patched++
	el, ok := c.byKey[stale.key]
	if !ok || el.Value != stale {
		return // evicted, replaced or patched meanwhile
	}
	el.Value = e
	c.lru.MoveToFront(el)
	c.bytes += e.size - stale.size
	c.evictLocked()
}

// dropStale removes stale, if it is still its key's entry, and counts an
// invalidation plus a miss.
func (c *resultCache) dropStale(stale *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.Invalidations++
	c.st.Misses++
	if el, ok := c.byKey[stale.key]; ok && el.Value == stale {
		c.removeLocked(el, stale)
	}
}

func entrySize(key string, ids []uint64) int64 {
	return int64(len(key)) + 8*int64(len(ids)) + entryOverhead
}

// put stores a merged result computed under generation gen from a
// fan-out that started at drained watermark asOf. A result bigger than
// the whole budget is served uncached rather than wiping the cache for
// one entry.
func (c *resultCache) put(key string, ids []uint64, gen, asOf uint64) {
	size := entrySize(key, ids)
	if size > c.budget {
		return
	}
	e := &cacheEntry{key: key, ids: slices.Clone(ids), gen: gen, asOf: asOf, size: size}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.removeLocked(el, el.Value.(*cacheEntry))
	}
	c.byKey[key] = c.lru.PushFront(e)
	c.bytes += size
	c.evictLocked()
}

// evictLocked drops least recently used entries until the budget holds.
func (c *resultCache) evictLocked() {
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

// startFlight registers a single-flight for (key, gen, asOf). The
// second return is true when the caller is the leader and must execute
// the fan-out then call finishFlight; false means another query's
// fan-out for the same key, generation and drained watermark is in
// progress and the caller should wait on fl.done. A flight registered
// under a DIFFERENT generation or watermark is not joinable — its
// fan-out may predate a view or a delivered write the caller has
// already seen — so the caller leads unregistered (fl == nil): it
// executes without publishing, and the other flight finishes on its own.
func (c *resultCache) startFlight(key string, gen, asOf uint64) (fl *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.flights[key]; ok {
		if cur.gen == gen && cur.asOf == asOf {
			return cur, false
		}
		return nil, true // older flight in progress; lead unregistered
	}
	fl = &flight{gen: gen, asOf: asOf, done: make(chan struct{})}
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
// same key are guaranteed the same answer at the same generation and
// watermark, and ask the same encrypted query (which a patch matches):
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

// cachedAnswer serves key from the cache at generation gen and drained
// watermark w: a fresh entry as it is, a stale one brought forward to w
// when the frontend can (see bringForward), else dropped.
func (f *Frontend) cachedAnswer(key string, spec QuerySpec, gen, w uint64) ([]uint64, bool) {
	ids, hit, stale := f.cache.get(key, gen, w)
	if stale == nil {
		return ids, hit
	}
	if ids, ok := f.bringForward(spec, stale, w); ok {
		f.cache.patched(stale, ids, w)
		return slices.Clone(ids), true
	}
	f.cache.dropStale(stale)
	return nil, false
}

// bringForward returns e's answer as of drained watermark w, or false
// when the frontend cannot compute it. A plaintext entry reads nothing a
// drain writes, so its ids stand. An encrypted one is patched with the
// records in (e.asOf, w] (patchIDs), which needs a drained-record
// source, nodes that agree on the matching parameter (patcher), and a
// log window that holds those records. It only looks at the window:
// reading the log is followDrain's, so a hit never waits on the
// coordinator, and nothing here runs under the cache's lock or f.mu.
func (f *Frontend) bringForward(spec QuerySpec, e *cacheEntry, w uint64) ([]uint64, bool) {
	m := f.patcher()
	if m == nil {
		return nil, false
	}
	if spec.Plain != nil {
		return e.ids, true
	}
	recs, ks, ok := f.drained.view(e.asOf, w)
	if !ok {
		return nil, false
	}
	return patchIDs(e.ids, recs, ks, m.NewRun(spec.Enc)), true
}

// ObserveIngest feeds the frontend the coordinator's drained watermark
// (from a view poll, an fe.put acknowledgement, or any IngestResp): the
// last log sequence delivered to every owning node. It is a monotonic
// store — a lagging report (an old view, a slow replica) never rewinds
// it — that wakes the goroutine reading drained records (followDrain)
// and does no I/O, since ApplyView calls it under f.mu. A cached answer
// computed before the watermark is brought forward or dropped at its
// next hit. seq, the last accepted write, is
// ignored: a record accepted but not yet drained is on no node, so no
// fan-out can return it and no cached answer is contradicted by it.
func (f *Frontend) ObserveIngest(seq, drained uint64) {
	for {
		cur := f.ingDrained.Load()
		if drained <= cur {
			return
		}
		if f.ingDrained.CompareAndSwap(cur, drained) {
			if f.drained != nil {
				f.drained.poke()
			}
			return
		}
	}
}

// CacheStats snapshots the result cache counters (zero value when the
// cache is disabled).
func (f *Frontend) CacheStats() CacheStats {
	if f.cache == nil {
		return CacheStats{}
	}
	st := f.cache.stats()
	st.Fences = int64(f.cacheGen.Load())
	return st
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
