package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"roar/internal/frontend"
	"roar/internal/pps"
	"roar/internal/workload"
)

// End-to-end economics tests: the result cache must convert Zipf repeat
// traffic into hits WITHOUT ever changing an answer (the cached
// frontend's id sets are compared against an uncached frontend's at
// every step), and the per-tenant quotas must keep a hot tenant from
// starving a well-behaved one.

func idSet(r frontend.Result) map[uint64]bool {
	m := make(map[uint64]bool, len(r.IDs))
	for _, id := range r.IDs {
		m[id] = true
	}
	return m
}

func sameIDs(a, b map[uint64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// distinctWords collects n distinct corpus keywords (the query universe).
func distinctWords(docs []pps.Document, n int) []string {
	seen := map[string]bool{}
	var words []string
	for _, d := range docs {
		for _, k := range d.Keywords {
			if !seen[k] {
				seen[k] = true
				words = append(words, k)
				if len(words) == n {
					return words
				}
			}
		}
	}
	return words
}

// TestCacheZipfHitRatio drives a Zipf(s=1.0) query stream at a cached
// frontend and an uncached one side by side: every answer must be
// identical, and the warm hit ratio must clear the 30% economics floor.
func TestCacheZipfHitRatio(t *testing.T) {
	c, docs := startCluster(t, Options{
		Nodes: 8, P: 2, Seed: 3,
		Frontend: frontend.Config{CacheBudget: 4 << 20},
	})
	plainFE, err := c.AddFrontend(frontend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	words := distinctWords(docs, 30)
	if len(words) < 10 {
		t.Fatalf("corpus too small: %d distinct words", len(words))
	}
	rng := rand.New(rand.NewSource(11))
	qs := workload.NewQueryStream(uint64(len(words)), 1.0, rng)

	const draws = 200
	for i := 0; i < draws; i++ {
		word := words[qs.Next()]
		q, err := c.Enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q, Tenant: "zipf"})
		if err != nil {
			t.Fatalf("draw %d (%q): %v", i, word, err)
		}
		want, err := plainFE.Query(context.Background(), frontend.QuerySpec{Enc: q})
		if err != nil {
			t.Fatalf("draw %d (%q) uncached: %v", i, word, err)
		}
		if !sameIDs(idSet(got), idSet(want)) {
			t.Fatalf("draw %d (%q): cached answer diverged: %d ids vs %d uncached",
				i, word, len(got.IDs), len(want.IDs))
		}
	}
	st := c.FE.CacheStats()
	ratio := float64(st.Hits) / float64(st.Hits+st.Misses)
	t.Logf("cache: hits=%d misses=%d ratio=%.2f entries=%d bytes=%d",
		st.Hits, st.Misses, ratio, st.Entries, st.Bytes)
	if ratio < 0.30 {
		t.Errorf("warm Zipf hit ratio %.2f, want >= 0.30", ratio)
	}
	if st.Hits+st.Misses != draws {
		t.Errorf("cache saw %d lookups, want %d", st.Hits+st.Misses, draws)
	}
}

// TestCacheIngestInvalidationChaos interleaves async ingest batches with
// queries: after the frontend observes each ingest epoch (the put ack,
// then the drain watermark via the view), its answers must be identical
// to an uncached frontend's — zero stale results at every step.
func TestCacheIngestInvalidationChaos(t *testing.T) {
	c, err := Start(Options{
		Nodes: 6, P: 2, Seed: 5,
		Frontend:  frontend.Config{CacheBudget: 1 << 20},
		IngestDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	plainFE, err := c.AddFrontend(frontend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.Enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "target"})
	if err != nil {
		t.Fatal(err)
	}
	spec := frontend.QuerySpec{Enc: q}
	check := func(step string, wantN int) {
		t.Helper()
		got, err := c.FE.Query(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: cached query: %v", step, err)
		}
		want, err := plainFE.Query(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: uncached query: %v", step, err)
		}
		if !sameIDs(idSet(got), idSet(want)) {
			t.Fatalf("%s: cached %d ids, uncached %d — stale result served",
				step, len(got.IDs), len(want.IDs))
		}
		if wantN >= 0 && len(got.IDs) != wantN {
			t.Fatalf("%s: %d matches, want %d", step, len(got.IDs), wantN)
		}
	}

	check("empty cluster", 0)
	for batch := 1; batch <= 5; batch++ {
		// Two records per batch, one matching, pushed asynchronously.
		var recs []pps.Encoded
		for j := 0; j < 2; j++ {
			kw := "filler"
			if j == 0 {
				kw = "target"
			}
			rec, err := c.Enc.EncryptDocument(pps.Document{
				ID: uint64(batch)<<32 | uint64(j), Path: fmt.Sprintf("/b/%d/%d", batch, j),
				Size: 1, Modified: time.Unix(1.2e9, 0), Keywords: []string{kw},
			})
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
		// Warm the cache with the pre-batch answer so a stale entry
		// definitely exists when the write lands.
		check(fmt.Sprintf("batch %d pre-put", batch), batch-1)

		seq, err := c.IngestPut(context.Background(), recs...)
		if err != nil {
			t.Fatal(err)
		}
		// The put ack is the first invalidation signal (read-your-writes
		// through Syncer.Ingest in a real deployment). The drain is still
		// racing the nodes, so the answer may be the pre- or post-batch
		// set — but it must come from a fresh fan-out, never the entry
		// cached before the put.
		c.FE.ObserveIngest(seq, 0)
		got, err := c.FE.Query(context.Background(), spec)
		if err != nil {
			t.Fatalf("batch %d post-ack: %v", batch, err)
		}
		if got.Source == frontend.SourceCache {
			t.Fatalf("batch %d post-ack: served from cache across the ingest ack", batch)
		}
		if n := len(got.IDs); n < batch-1 || n > batch {
			t.Fatalf("batch %d post-ack: %d matches, want %d or %d", batch, n, batch-1, batch)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = c.WaitIngestDrained(ctx, seq)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		// The drain watermark arrives with the next view sync.
		if err := c.SyncView(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("batch %d post-drain", batch), batch)
	}
	if st := c.FE.CacheStats(); st.Hits == 0 {
		t.Error("chaos run never hit the cache; invalidation test is vacuous")
	}
}

// TestTenantFairnessHotTenantShed floods a hot tenant far past its
// quota beside a victim paced well under its own: the hot tenant must
// be shed substantially while the victim is never shed, not once.
// Token buckets are per-tenant, so the victim's headroom is exact
// arithmetic — its pace (1 per 300ms) against a 5/s refill never
// drains the bucket no matter how hard the hot tenant pushes.
func TestTenantFairnessHotTenantShed(t *testing.T) {
	c, docs := startCluster(t, Options{
		Nodes: 4, P: 1, Seed: 9,
		// No cache: hits would bypass admission and mask the quota. The
		// 5/s rate keeps the refill interval (200ms) far above a single
		// query's latency even under -race, so the hot flood stays over
		// quota on any machine.
		Frontend: frontend.Config{TenantRate: 5, TenantBurst: 2},
	})
	word := pickWord(docs)
	q, err := c.Enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
	if err != nil {
		t.Fatal(err)
	}
	run := func(tenant string) (frontend.Result, error) {
		return c.FE.Query(context.Background(), frontend.QuerySpec{
			Enc: q, Tenant: tenant, Priority: frontend.PriorityBulk,
		})
	}

	var hotSent, hotShed, vicSent, vicShed int
	start := time.Now()
	nextVictim := time.Duration(0)
	for elapsed := time.Duration(0); elapsed < 3*time.Second; elapsed = time.Since(start) {
		hotSent++
		if _, err := run("hot"); errors.Is(err, frontend.ErrTenantShed) {
			hotShed++
		} else if err != nil {
			t.Fatalf("hot query %d: %v", hotSent, err)
		}
		if elapsed >= nextVictim {
			nextVictim = elapsed + 300*time.Millisecond
			vicSent++
			if _, err := run("victim"); errors.Is(err, frontend.ErrTenantShed) {
				vicShed++
			} else if err != nil {
				t.Fatalf("victim query %d: %v", vicSent, err)
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("hot: %d/%d shed; victim: %d/%d shed", hotShed, hotSent, vicShed, vicSent)
	if hotShed == 0 {
		t.Error("flooding hot tenant was never shed")
	}
	if vicShed != 0 {
		t.Errorf("victim shed %d of %d queries, want exactly 0", vicShed, vicSent)
	}

	// The telemetry block must attribute the sheds to the hot tenant.
	rep := c.FE.HealthReport()
	var hot, vic int
	for _, tl := range rep.Tenants {
		switch tl.Tenant {
		case "hot":
			hot = tl.Shed
		case "victim":
			vic = tl.Shed
		}
	}
	if hot != hotShed || vic != vicShed {
		t.Errorf("health report sheds hot=%d victim=%d, counters say %d/%d", hot, vic, hotShed, vicShed)
	}
}
