package cluster

import (
	"context"
	"testing"
	"time"

	"roar/internal/frontend"
	"roar/internal/pps"
)

// TestAddedFrontendSyncsItself: a frontend from AddFrontend is kept
// current by its own Syncer, as roar-frontend is. A ChangeP made on the
// coordinator reaches it through its poll loop, with no harness call in
// between, within a few polls (the loop polls once a second), and its
// queries then plan at the new p.
func TestAddedFrontendSyncsItself(t *testing.T) {
	c, docs := startCluster(t, Options{Nodes: 8, P: 2, Seed: 31})
	fe, err := c.AddFrontend(frontend.Config{Name: "fe-added"})
	if err != nil {
		t.Fatal(err)
	}
	if p := fe.View().P; p != 2 {
		t.Fatalf("added frontend starts at p=%d, want 2", p)
	}
	if err := c.Coord.ChangeP(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fe.View().P != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("added frontend still at p=%d 5 s after ChangeP(4)", fe.View().P)
		}
		time.Sleep(20 * time.Millisecond)
	}
	word := pickWord(docs)
	q, err := c.Enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fe.Query(context.Background(), frontend.QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	if res.SubQueries != 4 {
		t.Errorf("after its own poll the frontend sent %d sub-queries, want 4", res.SubQueries)
	}
	checkResult(t, res, expectKeyword(docs, word))
}
