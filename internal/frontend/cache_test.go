package frontend

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roar/internal/pps"
	"roar/internal/proto"
)

// ---------------------------------------------------------------------------
// resultCache unit tests: generation fencing, LRU budget, single-flight.

func TestResultCacheGetPutGenFence(t *testing.T) {
	c := newResultCache(1<<20, 4)
	c.put("k", []uint64{1, 2, 3}, 1)
	ids, ok := c.get("k", 1)
	if !ok || len(ids) != 3 {
		t.Fatalf("same-generation get: ok=%v ids=%v", ok, ids)
	}
	// The returned slice is a copy — mutating it must not poison the cache.
	ids[0] = 99
	ids2, _ := c.get("k", 1)
	if ids2[0] != 1 {
		t.Fatal("cached ids aliased to a caller's slice")
	}
	// A newer generation invalidates on sight and removes the entry.
	if _, ok := c.get("k", 2); ok {
		t.Fatal("stale-generation entry served as a hit")
	}
	st := c.stats()
	if st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("invalidated entry still resident: %+v", st)
	}
	// Even back at the original generation the entry is gone: removal is
	// permanent, not a filter.
	if _, ok := c.get("k", 1); ok {
		t.Fatal("invalidated entry resurrected")
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	// One shard so the LRU order is fully observable. Budget fits two
	// of the three entries below.
	entrySize := int64(1) + 8*4 + entryOverhead
	c := newResultCache(2*entrySize, 1)
	c.put("a", []uint64{1, 2, 3, 4}, 1)
	c.put("b", []uint64{1, 2, 3, 4}, 1)
	c.get("a", 1) // touch a so b is the LRU victim
	c.put("c", []uint64{1, 2, 3, 4}, 1)
	if _, ok := c.get("b", 1); ok {
		t.Error("LRU victim b survived over-budget put")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k, 1); !ok {
			t.Errorf("entry %q evicted though within budget", k)
		}
	}
	if st := c.stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// An entry larger than a whole shard is skipped, not stored.
	big := make([]uint64, 1024)
	c.put("huge", big, 1)
	if _, ok := c.get("huge", 1); ok {
		t.Error("oversized entry stored; should be served uncached")
	}
}

func TestResultCacheReplaceSameKey(t *testing.T) {
	c := newResultCache(1<<20, 1)
	c.put("k", []uint64{1}, 1)
	c.put("k", []uint64{2, 3}, 2)
	if st := c.stats(); st.Entries != 1 {
		t.Fatalf("replacing put left %d entries", st.Entries)
	}
	ids, ok := c.get("k", 2)
	if !ok || len(ids) != 2 {
		t.Fatalf("replaced entry: ok=%v ids=%v", ok, ids)
	}
}

func TestResultCacheSingleFlight(t *testing.T) {
	c := newResultCache(1<<20, 4)
	fl, leader := c.startFlight("k", 1)
	if !leader || fl == nil {
		t.Fatal("first flight must lead")
	}
	fl2, leader2 := c.startFlight("k", 1)
	if leader2 || fl2 != fl {
		t.Fatal("same-generation second flight must join the first")
	}
	// A different generation must NOT join the stale flight: its result
	// is already fenced out. The caller leads unregistered.
	fl3, leader3 := c.startFlight("k", 2)
	if !leader3 || fl3 != nil {
		t.Fatalf("newer-generation flight joined a stale one: fl=%v leader=%v", fl3, leader3)
	}
	done := make(chan []uint64)
	go func() {
		<-fl2.done
		done <- fl2.ids
	}()
	c.finishFlight("k", fl, []uint64{7}, nil)
	select {
	case ids := <-done:
		if len(ids) != 1 || ids[0] != 7 {
			t.Fatalf("follower saw %v", ids)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower never woke")
	}
	// The finished flight is deregistered; a new one can lead.
	if _, leader := c.startFlight("k", 1); !leader {
		t.Fatal("flight table did not clear after finishFlight")
	}
}

// ---------------------------------------------------------------------------
// Cache key canonicalisation.

func TestCacheKeyCanonical(t *testing.T) {
	enc := slimEncoder()
	q1, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})

	base := QuerySpec{Enc: q1}
	// Tenant, priority, and cache-control select admission behaviour, not
	// the answer — they must share one entry.
	same := []QuerySpec{
		{Enc: q1, Tenant: "acme"},
		{Enc: q1, Priority: PriorityHigh},
		{Enc: q1, CacheControl: proto.CacheRefresh},
	}
	for i, s := range same {
		if cacheKey(s) != cacheKey(base) {
			t.Errorf("spec %d: admission-only field changed the cache key", i)
		}
	}

	pq := proto.PlainQuery{Mode: 0, Terms: []string{"aa"}}
	distinct := []QuerySpec{
		{Plain: &pq},
		{Plain: &proto.PlainQuery{Mode: 0, Terms: []string{"ab"}}},
		{Plain: &proto.PlainQuery{Mode: 0, Terms: []string{"aa"}, Limit: 5}},
		{Plain: &proto.PlainQuery{Mode: 1, Terms: []string{"aa"}}},
	}
	seen := map[string]int{cacheKey(base): -1}
	for i, s := range distinct {
		k := cacheKey(s)
		if prev, dup := seen[k]; dup {
			t.Errorf("specs %d and %d collide on cache key", prev, i)
		}
		seen[k] = i
	}
}

// ---------------------------------------------------------------------------
// Query-level behaviour against real nodes.

func cachedFrontend(t *testing.T, v proto.View) *Frontend {
	t.Helper()
	fe := New(Config{CacheBudget: 1 << 20})
	t.Cleanup(fe.Close)
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	return fe
}

func TestQueryCacheHitSourceAndStats(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 4, 1)
	loadAll(t, nodes, enc, []string{"aa", "bb", "aa"})
	fe := cachedFrontend(t, v)
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	spec := QuerySpec{Enc: q, Tenant: "acme"}

	r1, err := fe.Query(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Source != SourceFanout {
		t.Errorf("cold query Source = %q, want %q", r1.Source, SourceFanout)
	}
	r2, err := fe.Query(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != SourceCache {
		t.Errorf("warm query Source = %q, want %q", r2.Source, SourceCache)
	}
	if len(r2.IDs) != len(r1.IDs) {
		t.Fatalf("cache hit changed the answer: %v vs %v", r2.IDs, r1.IDs)
	}
	if r2.Cache.Hits != 1 || r2.Cache.Misses != 1 {
		t.Errorf("CacheStats hits=%d misses=%d, want 1/1", r2.Cache.Hits, r2.Cache.Misses)
	}
	if bd := fe.DelayBreakdown(); bd.CacheHit.N != 1 {
		t.Errorf("DelayBreakdown.CacheHit.N = %d, want 1", bd.CacheHit.N)
	}

	// Bypass: served by fan-out and the entry is neither read nor written.
	r3, err := fe.Query(context.Background(), QuerySpec{Enc: q, CacheControl: proto.CacheBypass})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Source != SourceFanout {
		t.Errorf("bypass Source = %q, want %q", r3.Source, SourceFanout)
	}
	if got := fe.CacheStats(); got.Hits != 1 || got.Misses != 1 {
		t.Errorf("bypass touched the cache: %+v", got)
	}

	// Refresh: forced fan-out, result re-stored, next default query hits.
	r4, err := fe.Query(context.Background(), QuerySpec{Enc: q, CacheControl: proto.CacheRefresh})
	if err != nil {
		t.Fatal(err)
	}
	if r4.Source != SourceFanout {
		t.Errorf("refresh Source = %q, want %q", r4.Source, SourceFanout)
	}
	r5, err := fe.Query(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if r5.Source != SourceCache {
		t.Errorf("query after refresh Source = %q, want %q", r5.Source, SourceCache)
	}
}

// TestSubQueryMemoFlags: a sub-query asks for the nodes' match memo
// exactly when this frontend's result cache could have answered the
// query, so every other caller keeps the plain scan. Read off the nodes:
// their memo counts lookups, and a refill scans the whole arc again.
func TestSubQueryMemoFlags(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 1, 1) // one node, so the repeat finds the memo the first query filled
	loadAll(t, nodes, enc, []string{"aa", "bb", "aa"})
	memo := func() (lookups, scanned int64) {
		for _, nd := range nodes {
			st := nd.Stats()
			lookups += st.MemoLookups
			scanned += st.Scanned
		}
		return lookups, scanned
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	ask := func(fe *Frontend, cc uint8) Result {
		t.Helper()
		res, err := fe.Query(context.Background(), QuerySpec{Enc: q, CacheControl: cc})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IDs) != 2 {
			t.Fatalf("cache control %d: ids %v, want the 2 \"aa\" records", cc, res.IDs)
		}
		return res
	}

	plain := New(Config{})
	defer plain.Close()
	if err := plain.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	ask(plain, proto.CacheDefault)
	ask(plain, proto.CacheRefresh)
	cached := cachedFrontend(t, v)
	ask(cached, proto.CacheBypass)
	if lookups, _ := memo(); lookups != 0 {
		t.Fatalf("a cache-less frontend and a bypass query made %d memo lookups", lookups)
	}

	cold := ask(cached, proto.CacheDefault)
	lookups, scanned0 := memo()
	if lookups != int64(cold.SubQueries) || cold.SubQueries == 0 {
		t.Fatalf("default query: %d memo lookups for %d sub-queries", lookups, cold.SubQueries)
	}
	refresh := ask(cached, proto.CacheRefresh)
	lookups, scanned1 := memo()
	if lookups != int64(cold.SubQueries+refresh.SubQueries) {
		t.Fatalf("refresh query: %d memo lookups in all, want %d", lookups, cold.SubQueries+refresh.SubQueries)
	}
	if scanned1-scanned0 != int64(cold.Scanned) || cold.Scanned == 0 {
		t.Fatalf("refresh re-scanned %d records, the cold scan took %d: a refresh is never answered from memory",
			scanned1-scanned0, cold.Scanned)
	}
	// The refresh stored its answer in the frontend's cache; fence it so
	// the next default query fans out, and finds the nodes' memo warm.
	cached.ObserveIngest(1, 1)
	if warm := ask(cached, proto.CacheDefault); warm.Source != SourceFanout || warm.Scanned != 0 {
		t.Fatalf("repeat after a fence: source %q scanning %d records, want a fan-out answered from the nodes' memory", warm.Source, warm.Scanned)
	}
}

// TestQueryCacheEpochInvalidation is the satellite property test: once a
// write at "epoch" E has been observed (ObserveIngest or a newer view),
// no subsequent hit may return pre-E results. It interleaves direct node
// puts with queries and checks the cached frontend's answer against an
// uncached frontend's at every step.
func TestQueryCacheEpochInvalidation(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 4, 1)
	loadAll(t, nodes, enc, []string{"aa"})
	fe := cachedFrontend(t, v)
	plain := New(Config{}) // no cache: ground truth
	defer plain.Close()
	if err := plain.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})

	idSet := func(r Result) map[uint64]bool {
		m := make(map[uint64]bool, len(r.IDs))
		for _, id := range r.IDs {
			m[id] = true
		}
		return m
	}
	for epoch := uint64(1); epoch <= 5; epoch++ {
		// Warm the cache so a pre-E entry definitely exists.
		if _, err := fe.Query(context.Background(), QuerySpec{Enc: q}); err != nil {
			t.Fatal(err)
		}
		// The write lands on the nodes, then the frontend observes it —
		// the order PR 9's drain pipeline guarantees (FEPutResp carries
		// the watermark only after the records are durable).
		rec, err := enc.EncryptDocument(pps.Document{
			ID: (epoch + 100) * (1 << 40), Path: "/x", Size: 5,
			Modified: time.Unix(1.2e9, 0), Keywords: []string{"aa"},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range nodes {
			nd.Put(proto.PutReq{Records: []pps.Encoded{rec}})
		}
		fe.ObserveIngest(epoch, epoch)

		got, err := fe.Query(context.Background(), QuerySpec{Enc: q})
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Query(context.Background(), QuerySpec{Enc: q})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := idSet(got), idSet(want); len(g) != len(w) {
			t.Fatalf("epoch %d: cached answer has %d ids, uncached %d — stale hit", epoch, len(g), len(w))
		} else {
			for id := range w {
				if !g[id] {
					t.Fatalf("epoch %d: cached answer missing id %d — stale hit", epoch, id)
				}
			}
		}
		if got.Source != SourceFanout {
			t.Fatalf("epoch %d: post-invalidation query served from %q", epoch, got.Source)
		}
	}
	// A lagging watermark report must not re-invalidate.
	before := fe.CacheStats().Invalidations
	fe.ObserveIngest(1, 1)
	if _, err := fe.Query(context.Background(), QuerySpec{Enc: q}); err != nil {
		t.Fatal(err)
	}
	if after := fe.CacheStats().Invalidations; after != before {
		t.Errorf("stale watermark report invalidated entries: %d -> %d", before, after)
	}
}

// TestApplyViewCacheFencing: re-applying the installed view (the harness
// SyncView path) must keep the cache warm; a strictly newer epoch must
// flush it.
func TestApplyViewCacheFencing(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 4, 1)
	loadAll(t, nodes, enc, []string{"aa"})
	fe := cachedFrontend(t, v)
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	if _, err := fe.Query(context.Background(), QuerySpec{Enc: q}); err != nil {
		t.Fatal(err)
	}

	if err := fe.ApplyView(v); err != nil { // same (Term, Epoch)
		t.Fatal(err)
	}
	r, err := fe.Query(context.Background(), QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != SourceCache {
		t.Errorf("same-view re-apply flushed the cache (Source = %q)", r.Source)
	}

	v2 := v
	v2.Epoch = 2
	if err := fe.ApplyView(v2); err != nil {
		t.Fatal(err)
	}
	r, err = fe.Query(context.Background(), QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != SourceFanout {
		t.Errorf("newer epoch did not flush the cache (Source = %q)", r.Source)
	}
}

// TestQueryCoalesce: concurrent identical queries while a fan-out is slow
// collapse onto one flight.
func TestQueryCoalesce(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testViewCost(t, enc, 2, 1, 50*time.Millisecond)
	loadAll(t, nodes, enc, []string{"aa"})
	fe := cachedFrontend(t, v)
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	spec := QuerySpec{Enc: q}

	// Lead with one query so the flight is registered, then pile on.
	errc := make(chan error, 1)
	go func() {
		_, err := fe.Query(context.Background(), spec)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	const followers = 4
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := fe.Query(context.Background(), spec)
			if err != nil {
				t.Errorf("follower query: %v", err)
				return
			}
			if len(r.IDs) != 1 {
				t.Errorf("follower got %d ids, want 1", len(r.IDs))
			}
		}()
	}
	wg.Wait()
	if err := <-errc; err != nil {
		t.Fatalf("leader query: %v", err)
	}
	st := fe.CacheStats()
	if st.Coalesced == 0 {
		t.Error("no queries coalesced onto the in-flight fan-out")
	}
	if st.Coalesced+st.Hits < followers {
		t.Errorf("coalesced=%d hits=%d; %d followers should all have been served without a second fan-out",
			st.Coalesced, st.Hits, followers)
	}
}

// ---------------------------------------------------------------------------
// Race hammer: concurrent Get / Put / Invalidate on the sharded cache
// (run with -race; the assertions also hold without it).

func TestResultCacheRaceHammer(t *testing.T) {
	c := newResultCache(64<<10, 8)
	var gen atomic.Uint64
	gen.Store(1)
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}

	stop := make(chan struct{})
	invDone := make(chan struct{})
	// Invalidator: advances the generation continuously.
	go func() {
		defer close(invDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			gen.Add(1)
			if i%64 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	var wg sync.WaitGroup
	// Workers: mixed get/put/flight traffic. The invariant under attack:
	// a get must never return ids stored under a different generation
	// than the one it asked for.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 4000; i++ {
				k := keys[rng.Intn(len(keys))]
				g := gen.Load()
				switch rng.Intn(3) {
				case 0:
					// Store ids stamped with the generation they claim.
					c.put(k, []uint64{g}, g)
				case 1:
					if ids, ok := c.get(k, g); ok {
						if len(ids) != 1 || ids[0] != g {
							t.Errorf("get(%q, gen %d) returned ids from generation %d", k, g, ids[0])
							return
						}
					}
				default:
					if fl, leader := c.startFlight(k, g); leader && fl != nil {
						c.finishFlight(k, fl, []uint64{g}, nil)
					} else if fl != nil {
						<-fl.done
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	<-invDone
	st := c.stats()
	if st.Bytes < 0 || st.Entries < 0 {
		t.Errorf("accounting went negative: %+v", st)
	}
}
