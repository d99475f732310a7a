package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"roar/internal/frontend"
	"roar/internal/pps"
)

// TestDelayedNodeRecoversAndIsReused is the end-to-end recovery test:
// a node that is delayed (not dead) times out, is suspected and
// scheduled around, then — once it speeds back up — is cleared by the
// background probe and actually receives sub-queries again, with no
// view change and no process restart. This is the behaviour the seed's
// one-way failure map made impossible.
func TestDelayedNodeRecoversAndIsReused(t *testing.T) {
	const (
		nodes = 8
		p     = 4 // pq = n: every plan touches every node, and node
		// ranges (1/8) stay below the 1/p−δ bracket span so the §4.4
		// fallback around the suspected node always succeeds.
	)
	c, err := Start(Options{
		Nodes: nodes, P: p, Seed: 9,
		Frontend: frontend.Config{
			PQ:              nodes,
			SubQueryTimeout: 150 * time.Millisecond,
			ProbeInterval:   30 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := map[uint64]bool{}
	var recs []pps.Encoded
	for i := 0; i < 60; i++ {
		kw := "filler"
		if i%3 == 0 {
			kw = "target"
		}
		id := uint64(i+1) << 32
		rec, err := c.Enc.EncryptDocument(pps.Document{
			ID: id, Path: fmt.Sprintf("/d/%d", i), Size: int64(i),
			Modified: time.Unix(1.2e9, 0), Keywords: []string{kw},
		})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
		if kw == "target" {
			want[id] = true
		}
	}
	if err := c.LoadEncoded(recs); err != nil {
		t.Fatal(err)
	}
	q, err := c.Enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "target"})
	if err != nil {
		t.Fatal(err)
	}
	checkComplete := func(res frontend.Result) {
		t.Helper()
		got := map[uint64]bool{}
		for i, id := range res.IDs {
			if i > 0 && res.IDs[i] <= res.IDs[i-1] {
				t.Fatalf("ids not sorted unique: %v", res.IDs)
			}
			got[id] = true
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("missing id %d (%d/%d returned)", id, len(res.IDs), len(want))
			}
		}
	}

	const slowIdx = 1
	slowID := int(c.ids[slowIdx])

	// Delay — don't kill — one node beyond the failure timer.
	c.Nodes()[slowIdx].SetDelay(time.Second)
	res, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
	if err != nil {
		t.Fatalf("query with delayed node: %v", err)
	}
	checkComplete(res)
	if res.Failures == 0 {
		t.Fatal("delayed node never hit the failure path")
	}
	if got := failedNodes(c.FE); len(got) != 1 || got[0] != slowID {
		t.Fatalf("failedNodes = %v, want [%d]", got, slowID)
	}
	// While suspected, queries keep completing around it.
	res, err = c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(res)
	preQueries := c.Nodes()[slowIdx].Stats().Queries

	// The node speeds back up: the probe must clear it without help.
	c.Nodes()[slowIdx].SetDelay(0)
	deadline := time.Now().Add(3 * time.Second)
	for len(failedNodes(c.FE)) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("suspicion never cleared; health = %v", c.FE.Health())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And it must be re-used for real work again.
	for c.Nodes()[slowIdx].Stats().Queries == preQueries {
		if time.Now().After(deadline) {
			t.Fatalf("recovered node never rescheduled; health = %v", c.FE.Health())
		}
		res, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
		if err != nil {
			t.Fatalf("post-recovery query: %v", err)
		}
		checkComplete(res)
	}
	if st := c.FE.Health()[slowID]; st != "healthy" {
		t.Errorf("recovered node state = %q, want healthy", st)
	}
	t.Logf("node %d: suspected on timeout, probed back, re-used (%d -> %d completed sub-queries)",
		slowID, preQueries, c.Nodes()[slowIdx].Stats().Queries)
}
