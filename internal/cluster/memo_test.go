package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"roar/internal/frontend"
	"roar/internal/pps"
	"roar/internal/proto"
)

// End-to-end tests of the nodes' match memo: an answer assembled from a
// node's memory must be the answer a scan gives, through writes and
// through every kind of reconfiguration, and only a frontend whose own
// result cache could have answered the query asks for it.

// memoTotals sums the live nodes' memo counters; skip (or -1) names a
// killed node.
func memoTotals(c *Cluster, skip int) (lookups, reused, rescanned int64) {
	for i, n := range c.Nodes() {
		if i == skip {
			continue
		}
		st := n.Stats()
		lookups += st.MemoLookups
		reused += st.MemoBucketsReused
		rescanned += st.MemoBucketsRescanned
	}
	return lookups, reused, rescanned
}

// TestClusterIngestMemoReconfig: beside a durable writer, through ChangeP
// 4 -> 8 -> 2 and a decommission, every pool query answered by default
// (the frontend's cache was just flushed, so the legs go to the nodes'
// memo) equals the same query with CacheBypass (a plain scan) at every
// quiescent point. Reconfiguration reaches the memo as ordinary store
// mutations: there is no flush to forget.
func TestClusterIngestMemoReconfig(t *testing.T) {
	const killIdx = 5
	docs, recs := sharedCorpus(t)
	c, err := Start(Options{
		Nodes: 8, P: 4, Seed: 23,
		IngestDir: t.TempDir(),
		Frontend:  frontend.Config{CacheBudget: 4 << 20, SubQueryTimeout: 500 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LoadEncoded(recs); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	words := distinctWords(docs, 8)
	specs := make([]frontend.QuerySpec, len(words))
	for i, w := range words {
		q, err := c.Enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: w})
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = frontend.QuerySpec{Enc: q}
	}
	// The writer's documents carry the pool's words at fresh random ids,
	// so each batch changes answers all around the ring.
	rng := rand.New(rand.NewSource(23))
	written := 0
	write := func(n int) {
		t.Helper()
		batch := make([]pps.Encoded, n)
		for i := range batch {
			rec, err := c.Enc.EncryptDocument(pps.Document{
				ID: rng.Uint64(), Path: fmt.Sprintf("/w/%d", written), Size: 1,
				Modified: time.Unix(1.2e9, 0), Keywords: []string{words[written%len(words)]},
			})
			if err != nil {
				t.Fatal(err)
			}
			batch[i] = rec
			written++
		}
		seq, err := c.IngestPut(ctx, batch...)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WaitIngestDrained(ctx, seq); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string) {
		t.Helper()
		if err := c.SyncView(); err != nil {
			t.Fatal(err)
		}
		for i, spec := range specs {
			got, err := c.FE.Query(ctx, spec)
			if err != nil {
				t.Fatalf("%s, %q by default: %v", step, words[i], err)
			}
			if got.Source == frontend.SourceCache {
				t.Fatalf("%s, %q: answered by the frontend's cache; the step should have flushed it", step, words[i])
			}
			spec.CacheControl = proto.CacheBypass
			want, err := c.FE.Query(ctx, spec)
			if err != nil {
				t.Fatalf("%s, %q with bypass: %v", step, words[i], err)
			}
			if !slices.Equal(got.IDs, want.IDs) {
				t.Fatalf("%s, %q: %d ids through the memo, %d from a scan", step, words[i], len(got.IDs), len(want.IDs))
			}
			if len(want.IDs) == 0 {
				t.Fatalf("%s, %q: no match at all; the comparison is vacuous", step, words[i])
			}
		}
	}

	check("loaded")
	write(24)
	check("p=4 after a write")
	if err := c.Coord.ChangeP(ctx, 8); err != nil {
		t.Fatal(err)
	}
	check("p=8")
	write(24)
	check("p=8 after a write")
	if err := c.Coord.ChangeP(ctx, 2); err != nil {
		t.Fatal(err)
	}
	check("p=2")
	write(24)
	check("p=2 after a write")
	if err := c.KillNode(killIdx); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverFailure(ctx, killIdx); err != nil {
		t.Fatal(err)
	}
	check("after the decommission")
	write(24)
	check("after the decommission and a write")

	lookups, reused, rescanned := memoTotals(c, killIdx)
	t.Logf("memo: %d lookups, %d buckets reused, %d re-scanned", lookups, reused, rescanned)
	if lookups == 0 || reused == 0 || rescanned == 0 {
		t.Fatalf("memo lookups %d, buckets reused %d, re-scanned %d: the run never exercised it", lookups, reused, rescanned)
	}
}

// TestClusterMemoOptIn: a CacheBypass query and a cache-less frontend
// leave every node's memo untouched, which is what keeps bypass
// workloads and the paper-figure benches on the plain scan; a default
// query through a caching frontend makes one lookup per sub-query.
func TestClusterMemoOptIn(t *testing.T) {
	c, docs := startCluster(t, Options{
		Nodes: 8, P: 4, Seed: 29,
		Frontend: frontend.Config{CacheBudget: 1 << 20},
	})
	plainFE, err := c.AddFrontend(frontend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.Enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: pickWord(docs)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.FE.Query(ctx, frontend.QuerySpec{Enc: q, CacheControl: proto.CacheBypass}); err != nil {
			t.Fatal(err)
		}
		if _, err := plainFE.Query(ctx, frontend.QuerySpec{Enc: q}); err != nil {
			t.Fatal(err)
		}
	}
	if lookups, _, _ := memoTotals(c, -1); lookups != 0 {
		t.Fatalf("bypass queries and a cache-less frontend made %d memo lookups", lookups)
	}
	for _, st := range c.NodeStats(ctx) {
		if st.MemoEntries != 0 || st.MemoBytes != 0 {
			t.Fatalf("a node built a memo nobody asked for: %+v", st)
		}
	}
	res, err := c.FE.Query(ctx, frontend.QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	if lookups, _, _ := memoTotals(c, -1); lookups != int64(res.SubQueries) {
		t.Fatalf("a default query of %d sub-queries made %d memo lookups", res.SubQueries, lookups)
	}
}
