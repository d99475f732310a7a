package frontend

import (
	"context"
	"slices"
	"sort"
	"testing"
	"time"

	"roar/internal/node"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/ring"
)

func slimEncoder() *pps.Encoder {
	return pps.NewEncoder(pps.TestKey(1), pps.EncoderConfig{
		MaxKeywords: 2, MaxPathDir: 1,
		SizePoints: pps.LinearPoints(0, 100, 2), DateDays: 365, DateSpan: 2,
		RankBuckets: []int{1},
	})
}

// testView starts n real nodes with equal ranges and returns a view.
func testView(t testing.TB, enc *pps.Encoder, n, p int) (proto.View, []*node.Node) {
	t.Helper()
	v := proto.View{Epoch: 1, P: p}
	var nodes []*node.Node
	for i := 0; i < n; i++ {
		nd, err := node.New(node.Config{Params: enc.ServerParams()})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := nd.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		nodes = append(nodes, nd)
		v.Nodes = append(v.Nodes, proto.NodeInfo{
			ID: i, Ring: 0, Start: float64(i) / float64(n), Addr: srv.Addr(),
		})
	}
	return v, nodes
}

// loadAll puts every record on every node (p=1-style over-replication,
// simplest correct layout for unit tests).
func loadAll(t *testing.T, nodes []*node.Node, enc *pps.Encoder, words []string) {
	t.Helper()
	for i, w := range words {
		rec, err := enc.EncryptDocument(pps.Document{
			ID: uint64(i+1) * (1 << 40), Path: "/x", Size: 5,
			Modified: time.Unix(1.2e9, 0), Keywords: []string{w},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range nodes {
			nd.Put(proto.PutReq{Records: []pps.Encoded{rec}})
		}
	}
}

// failedNodes lists the nodes the frontend currently suspects, sorted.
func failedNodes(fe *Frontend) []int {
	var out []int
	for id, st := range fe.Health() {
		if st == stateSuspected.String() {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

func TestApplyViewAndQuery(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 4, 1)
	loadAll(t, nodes, enc, []string{"aa", "bb", "aa"})
	fe := New(Config{})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	res, err := fe.Query(context.Background(), QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 2 {
		t.Fatalf("got %d matches, want 2", len(res.IDs))
	}
	if res.SubQueries != 1 {
		t.Errorf("p=1 should send one sub-query, sent %d", res.SubQueries)
	}
}

func TestApplyViewRejectsEmpty(t *testing.T) {
	fe := New(Config{})
	defer fe.Close()
	if err := fe.ApplyView(proto.View{P: 1}); err == nil {
		t.Error("empty view must be rejected")
	}
}

func TestViewUpdatePreservesSpeeds(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 4, 2)
	loadAll(t, nodes, enc, []string{"aa"})
	fe := New(Config{})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	if _, err := fe.Query(context.Background(), QuerySpec{Enc: q}); err != nil {
		t.Fatal(err)
	}
	before := fe.SpeedEstimates()
	if len(before) == 0 {
		t.Fatal("expected learned speeds")
	}
	// Same nodes, new epoch: estimates must survive.
	v2 := v
	v2.Epoch = 2
	if err := fe.ApplyView(v2); err != nil {
		t.Fatal(err)
	}
	after := fe.SpeedEstimates()
	for id, sp := range before {
		if after[id] != sp {
			t.Errorf("speed for node %d changed across identical views: %v -> %v", id, sp, after[id])
		}
	}
	// Dropping a node forgets it.
	v3 := v2
	v3.Epoch = 3
	v3.Nodes = v3.Nodes[:3]
	if err := fe.ApplyView(v3); err != nil {
		t.Fatal(err)
	}
	if _, ok := fe.SpeedEstimates()[3]; ok {
		t.Error("removed node should be forgotten")
	}
}

func TestFailureDetectionAndFallback(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 6, 2)
	loadAll(t, nodes, enc, []string{"aa", "bb"})
	fe := New(Config{SubQueryTimeout: 300 * time.Millisecond})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	// Point node 2's address at a dead port by rewriting the view.
	deadView := v
	deadView.Epoch = 2
	deadView.Nodes = append([]proto.NodeInfo(nil), v.Nodes...)
	deadView.Nodes[2].Addr = "127.0.0.1:1" // nothing listens here
	if err := fe.ApplyView(deadView); err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	// Run enough queries that some plan hits node 2.
	sawFailure := false
	for i := 0; i < 10; i++ {
		res, err := fe.Query(context.Background(), QuerySpec{Enc: q})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(res.IDs) != 1 {
			t.Fatalf("query %d returned %d matches, want 1 (fallback must preserve harvest)", i, len(res.IDs))
		}
		if res.Failures > 0 {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Skip("no plan touched the dead node; scheduling avoided it")
	}
	if len(failedNodes(fe)) == 0 {
		t.Error("failure should be recorded")
	}
}

func TestMarkFailedAvoidsNode(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 6, 3)
	loadAll(t, nodes, enc, []string{"aa"})
	// Probing disabled: node 1 is alive, so the background prober would
	// (correctly) clear the mark; this test pins the avoidance behaviour
	// while the mark holds.
	fe := New(Config{ProbeInterval: -1})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	fe.MarkFailed(ring.NodeID(1))
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	for i := 0; i < 5; i++ {
		res, err := fe.Query(context.Background(), QuerySpec{Enc: q})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IDs) != 1 {
			t.Fatalf("marked-failed execution lost results")
		}
	}
	if got := failedNodes(fe); len(got) != 1 || got[0] != 1 {
		t.Errorf("failedNodes = %v", got)
	}
}

func TestBreakdownAccumulates(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 3, 1)
	loadAll(t, nodes, enc, []string{"aa"})
	fe := New(Config{})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	for i := 0; i < 4; i++ {
		if _, err := fe.Query(context.Background(), QuerySpec{Enc: q}); err != nil {
			t.Fatal(err)
		}
	}
	bd := fe.DelayBreakdown()
	if bd.Total.N != 4 {
		t.Errorf("breakdown N = %d, want 4", bd.Total.N)
	}
	if bd.Dispatch.Mean <= 0 || bd.Total.Mean < bd.Dispatch.Mean {
		t.Errorf("phases inconsistent: %+v", bd)
	}
}

// TestMergeIDs pins the merge invariant directly: overlapping
// sub-responses (the failure re-dispatch case, §4.4) come out sorted
// with each id once, and the limit cuts after that.
func TestMergeIDs(t *testing.T) {
	overlap := []uint64{5, 1, 3, 1, 5, 5, 7}
	if got, want := mergeIDs(slices.Clone(overlap), 0), []uint64{1, 3, 5, 7}; !slices.Equal(got, want) {
		t.Fatalf("ids = %v, want %v", got, want)
	}
	if got, want := mergeIDs(slices.Clone(overlap), 2), []uint64{1, 3}; !slices.Equal(got, want) {
		t.Fatalf("limited ids = %v, want %v", got, want)
	}
}

// TestMergeDedup checks the merged output through Execute at pq > 1
// over fully replicated nodes: results must come back sorted and
// unique (the sub-query arc bounds provide happy-path duplicate
// avoidance; overlap handling is covered by TestMergeIDs and
// the cluster failure e2e test).
func TestMergeDedup(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 4, 1)
	loadAll(t, nodes, enc, []string{"aa", "aa", "bb"})
	fe := New(Config{PQ: 4})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	res, err := fe.Query(context.Background(), QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubQueries != 4 {
		t.Fatalf("pq=4 should send 4 sub-queries, sent %d", res.SubQueries)
	}
	if len(res.IDs) != 2 {
		t.Fatalf("merge returned %d ids, want 2 deduplicated", len(res.IDs))
	}
	for i := 1; i < len(res.IDs); i++ {
		if res.IDs[i] <= res.IDs[i-1] {
			t.Fatalf("ids not sorted unique: %v", res.IDs)
		}
	}
}
