package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"roar/internal/frontend"
	"roar/internal/pps"
	"roar/internal/ring"
	"roar/internal/workload"
)

// expectKeyword returns the ground-truth ids for a keyword query.
func expectKeyword(docs []pps.Document, word string) map[uint64]bool {
	out := map[uint64]bool{}
	for _, d := range docs {
		for _, k := range d.Keywords {
			if k == word {
				out[d.ID] = true
				break
			}
		}
	}
	return out
}

// checkResult verifies completeness (no false negatives — a coverage
// violation would be a correctness bug) and tolerates the Bloom
// filter's designed ~1e-5 false-positive rate plus duplicates-free
// output.
func checkResult(t *testing.T, res frontend.Result, want map[uint64]bool) {
	t.Helper()
	got := map[uint64]bool{}
	for i, id := range res.IDs {
		if got[id] {
			t.Fatalf("duplicate id %d in results", id)
		}
		got[id] = true
		_ = i
	}
	for id := range want {
		if !got[id] {
			t.Fatalf("missing expected match %d (coverage violation)", id)
		}
	}
	extra := 0
	for id := range got {
		if !want[id] {
			extra++
		}
	}
	if extra > 3 {
		t.Fatalf("%d unexpected matches (Bloom fp budget exceeded)", extra)
	}
}

// failedNodes lists the nodes fe currently suspects or, once its
// Syncer's health pushes have quarantined them, holds quarantined,
// sorted.
func failedNodes(fe *frontend.Frontend) []int {
	var out []int
	for id, st := range fe.Health() {
		if st == "suspected" || st == "quarantined" {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

func pickWord(docs []pps.Document) string {
	counts := map[string]int{}
	for _, d := range docs {
		for _, k := range d.Keywords {
			counts[k]++
		}
	}
	best, bestN := "", 0
	for w, n := range counts {
		if n > bestN {
			best, bestN = w, n
		}
	}
	return best
}

// The corpus is encrypted once and shared by every test: the encoder
// key is fixed in Start, so the records are valid for any cluster.
var (
	corpusOnce sync.Once
	corpusDocs []pps.Document
	corpusRecs []pps.Encoded
	corpusErr  error
)

func sharedCorpus(t *testing.T) ([]pps.Document, []pps.Encoded) {
	t.Helper()
	corpusOnce.Do(func() {
		enc := pps.NewEncoder(pps.TestKey(1), SlimEncoderConfig())
		gen := workload.NewCorpus(2000, 7)
		files := gen.Generate(1200)
		rng := rand.New(rand.NewSource(99))
		for _, f := range files {
			kws := f.Keywords
			if len(kws) > 4 {
				kws = kws[:4]
			}
			d := pps.Document{ID: rng.Uint64(), Path: f.Path, Size: f.Size,
				Modified: f.Modified, Keywords: kws}
			r, err := enc.EncryptDocument(d)
			if err != nil {
				corpusErr = err
				return
			}
			corpusDocs = append(corpusDocs, d)
			corpusRecs = append(corpusRecs, r)
		}
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpusDocs, corpusRecs
}

func startCluster(t *testing.T, opts Options) (*Cluster, []pps.Document) {
	t.Helper()
	docs, recs := sharedCorpus(t)
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.LoadEncoded(recs); err != nil {
		t.Fatal(err)
	}
	return c, docs
}

func TestClusterBasicQuery(t *testing.T) {
	c, docs := startCluster(t, Options{Nodes: 12, P: 4, Seed: 1})
	word := pickWord(docs)
	res, err := c.Query(context.Background(), pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, expectKeyword(docs, word))
	if res.SubQueries != 4 {
		t.Errorf("sent %d sub-queries, want p=4", res.SubQueries)
	}
	if res.Scanned < len(docs)-10 {
		t.Errorf("scanned %d, want ~%d (full harvest)", res.Scanned, len(docs))
	}
	if res.Delay <= 0 || res.Schedule <= 0 {
		t.Error("breakdown timings should be positive")
	}
}

func TestClusterRepeatedQueriesStable(t *testing.T) {
	c, docs := startCluster(t, Options{Nodes: 10, P: 5, Seed: 2})
	word := pickWord(docs)
	want := expectKeyword(docs, word)
	for i := 0; i < 10; i++ {
		res, err := c.Query(context.Background(), pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, want)
		if res.Dispatch <= 0 || res.Delay < res.Dispatch {
			t.Errorf("query %d: delay %v, dispatch %v", i, res.Delay, res.Dispatch)
		}
	}
}

func TestClusterPQAboveP(t *testing.T) {
	c, docs := startCluster(t, Options{Nodes: 12, P: 3, Seed: 3,
		Frontend: frontend.Config{PQ: 9}})
	word := pickWord(docs)
	res, err := c.Query(context.Background(), pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubQueries != 9 {
		t.Errorf("sent %d sub-queries, want pq=9", res.SubQueries)
	}
	checkResult(t, res, expectKeyword(docs, word))
	// The dedup rule must also keep Scanned ≈ corpus (each object
	// matched exactly once despite overlapping replica sets).
	if res.Scanned > len(docs)+10 {
		t.Errorf("scanned %d > corpus %d: duplicate matching work", res.Scanned, len(docs))
	}
}

func TestClusterMultiPredicate(t *testing.T) {
	c, docs := startCluster(t, Options{Nodes: 8, P: 4, Seed: 4})
	word := pickWord(docs)
	res, err := c.Query(context.Background(), pps.And,
		pps.Predicate{Kind: pps.Keyword, Word: word},
		pps.Predicate{Kind: pps.SizeGreater, Value: 0})
	if err != nil {
		t.Fatal(err)
	}
	// size > 0 is satisfied by every document with size above the first
	// reference point; expect a subset of the keyword matches.
	want := expectKeyword(docs, word)
	got := map[uint64]bool{}
	for _, id := range res.IDs {
		got[id] = true
	}
	for id := range got {
		if !want[id] {
			t.Fatalf("AND result %d not in keyword set", id)
		}
	}
}

func TestClusterChangePUp(t *testing.T) {
	c, docs := startCluster(t, Options{Nodes: 12, P: 3, Seed: 5})
	word := pickWord(docs)
	want := expectKeyword(docs, word)
	before := c.Coord.ObjectsPushed()
	// Increase p (drop replicas): immediate, free.
	if err := c.Coord.ChangeP(context.Background(), 6); err != nil {
		t.Fatal(err)
	}
	if pushed := c.Coord.ObjectsPushed() - before; pushed != 0 {
		t.Errorf("increasing p pushed %d objects, want 0", pushed)
	}
	if err := c.SyncView(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(context.Background(), pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubQueries != 6 {
		t.Errorf("after p change sent %d sub-queries, want 6", res.SubQueries)
	}
	checkResult(t, res, want)
}

func TestClusterChangePDown(t *testing.T) {
	c, docs := startCluster(t, Options{Nodes: 12, P: 6, Seed: 6})
	word := pickWord(docs)
	want := expectKeyword(docs, word)
	before := c.Coord.ObjectsPushed()
	// Decrease p (add replicas): data must move before the switch.
	if err := c.Coord.ChangeP(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if pushed := c.Coord.ObjectsPushed() - before; pushed <= 0 {
		t.Error("decreasing p must transfer replicas")
	}
	if err := c.SyncView(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(context.Background(), pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubQueries != 3 {
		t.Errorf("after p change sent %d sub-queries, want 3", res.SubQueries)
	}
	checkResult(t, res, want)
}

func TestClusterNodeFailure(t *testing.T) {
	c, docs := startCluster(t, Options{Nodes: 12, P: 4, Seed: 7,
		Frontend: frontend.Config{SubQueryTimeout: 500 * time.Millisecond}})
	word := pickWord(docs)
	want := expectKeyword(docs, word)
	// Crash a node without telling anyone.
	if err := c.KillNode(3); err != nil {
		t.Fatal(err)
	}
	// Queries must still return complete results via the §4.4 fallback;
	// the first query eats the detection timeout.
	for i := 0; i < 3; i++ {
		res, err := c.Query(context.Background(), pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
		if err != nil {
			t.Fatalf("query %d after failure: %v", i, err)
		}
		checkResult(t, res, want)
	}
	if len(failedNodes(c.FE)) == 0 {
		t.Error("frontend should have detected the failure")
	}
	// Long-term recovery through membership redistributes the range.
	if err := c.RecoverFailure(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(context.Background(), pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, want)
	if res.Failures != 0 {
		t.Errorf("after recovery queries should not see failures, got %d", res.Failures)
	}
}

func TestClusterJoinLeave(t *testing.T) {
	c, docs := startCluster(t, Options{Nodes: 8, P: 4, Seed: 8})
	word := pickWord(docs)
	want := expectKeyword(docs, word)
	// Graceful leave.
	if err := c.Coord.Leave(context.Background(), c.NodeIDs()[2]); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncView(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(context.Background(), pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, want)
}

func TestClusterBalanceStep(t *testing.T) {
	c, docs := startCluster(t, Options{Nodes: 8, P: 4, Seed: 9})
	word := pickWord(docs)
	want := expectKeyword(docs, word)
	// Pretend one node is much more loaded; balancing should move
	// boundaries and keep correctness.
	loads := map[ring.NodeID]float64{}
	for i, id := range c.NodeIDs() {
		loads[id] = 1
		if i == 0 {
			loads[id] = 10
		}
	}
	moves, err := c.Coord.BalanceStep(context.Background(), loads, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		t.Error("a 10x load imbalance should trigger at least one move")
	}
	if err := c.SyncView(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(context.Background(), pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, want)
}

func TestClusterTwoRingsAndPowerCycle(t *testing.T) {
	c, docs := startCluster(t, Options{Nodes: 12, Rings: 2, P: 4, Seed: 10})
	word := pickWord(docs)
	want := expectKeyword(docs, word)
	res, err := c.Query(context.Background(), pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, want)
	// Power down ring 1; ring 0 alone holds all data.
	if err := c.SetRingEnabled(context.Background(), 1, false); err != nil {
		t.Fatal(err)
	}
	res, err = c.Query(context.Background(), pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, want)
	// Cannot power down the last ring.
	if err := c.SetRingEnabled(context.Background(), 0, false); err == nil {
		t.Error("disabling the last ring must fail")
	}
	// Power ring 1 back up.
	if err := c.SetRingEnabled(context.Background(), 1, true); err != nil {
		t.Fatal(err)
	}
	res, err = c.Query(context.Background(), pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, want)
}

func TestClusterThrottledNodes(t *testing.T) {
	speeds := make([]float64, 6)
	for i := range speeds {
		speeds[i] = 100000 // 100k objects/s
	}
	c, docs := startCluster(t, Options{Nodes: 6, P: 3, Seed: 12, NodeSpeeds: speeds})
	word := pickWord(docs)
	res, err := c.Query(context.Background(), pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, expectKeyword(docs, word))
	// 1500 docs across 3 sub-queries at 100k obj/s → ≥ 5ms total match.
	if res.Delay < 3*time.Millisecond {
		t.Errorf("throttled query finished in %v; limiter inactive?", res.Delay)
	}
}

// TestMultipleFrontends exercises §4.8.3: several front-end servers
// schedule independently against the same view, each learning speeds on
// its own, and all return identical complete results.
func TestMultipleFrontends(t *testing.T) {
	c, docs := startCluster(t, Options{Nodes: 10, P: 5, Seed: 20})
	word := pickWord(docs)
	want := expectKeyword(docs, word)
	fe2, err := c.AddFrontend(frontend.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.Enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, fe := range []*frontend.Frontend{c.FE, fe2} {
		wg.Add(1)
		go func(fe *frontend.Frontend) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := fe.Query(context.Background(), frontend.QuerySpec{Enc: q})
				if err != nil {
					errs <- err
					return
				}
				got := map[uint64]bool{}
				for _, id := range res.IDs {
					got[id] = true
				}
				for id := range want {
					if !got[id] {
						errs <- fmt.Errorf("frontend missed expected match %d", id)
						return
					}
				}
			}
		}(fe)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestFrontendRejectsWithoutView(t *testing.T) {
	fe := frontend.New(frontend.Config{})
	defer fe.Close()
	enc := pps.NewEncoder(pps.TestKey(1), SlimEncoderConfig())
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "x"})
	if _, err := fe.Query(context.Background(), frontend.QuerySpec{Enc: q}); err == nil {
		t.Error("execute without view must fail")
	}
}
