package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"roar/internal/frontend"
	"roar/internal/membership"
	"roar/internal/pps"
)

// Chaos end-to-end tests for the failure/overload control loop: two
// frontends and the coordinator close the loop the way a real
// deployment does (periodic health reports, quarantine views, recovery
// evidence), while nodes are killed and slow-walked underneath them.

// chaosCorpus loads 60 documents, 20 carrying the target keyword, and
// returns the expected id set.
func chaosCorpus(t *testing.T, c *Cluster) (map[uint64]bool, pps.Query) {
	t.Helper()
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
	return want, q
}

func checkIDSet(t *testing.T, res frontend.Result, want map[uint64]bool, phase string) {
	t.Helper()
	if len(res.IDs) != len(want) {
		t.Fatalf("%s: got %d ids, want %d", phase, len(res.IDs), len(want))
	}
	for _, id := range res.IDs {
		if !want[id] {
			t.Fatalf("%s: unexpected id %d", phase, id)
		}
	}
}

// arrivals counts every sub-query that reached a node, completed or
// cancelled mid-match — the "dispatches" a quarantined node must not
// receive.
func arrivals(c *Cluster, i int) int64 {
	st := c.Nodes()[i].Stats()
	return st.Queries + st.Canceled
}

// TestClusterChaosFailureLoop drives the full loop: one node killed and
// one slow-walked; both frontends' suspicion reports push the
// coordinator over the quarantine threshold; the published view demotes
// the nodes from scheduling (zero dispatches while quarantined, results
// stay identical to the healthy run); then the slow node recovers, the
// probes' evidence un-quarantines it, and it is genuinely rescheduled.
func TestClusterChaosFailureLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is not short")
	}
	const (
		nodes   = 8
		p       = 4 // node ranges 1/8 < 1/p−δ: §4.4 repair always covers
		killIdx = 3
		slowIdx = 5
	)
	c, err := Start(Options{
		Nodes: nodes, P: p, Seed: 11,
		Frontend: frontend.Config{
			Name:            "fe-0",
			PQ:              nodes, // every plan touches every node
			SubQueryTimeout: 120 * time.Millisecond,
			ProbeInterval:   25 * time.Millisecond,
		},
		Health: membership.HealthConfig{QuarantineThreshold: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fe2, err := c.AddFrontend(frontend.Config{
		Name:            "fe-1",
		PQ:              nodes,
		SubQueryTimeout: 120 * time.Millisecond,
		ProbeInterval:   25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fes := []*frontend.Frontend{c.FE, fe2}
	want, q := chaosCorpus(t, c)

	// Healthy baseline: both frontends agree on the reference id set.
	for _, fe := range fes {
		res, err := fe.Query(context.Background(), frontend.QuerySpec{Enc: q})
		if err != nil {
			t.Fatal(err)
		}
		checkIDSet(t, res, want, "healthy baseline")
	}

	killID, slowID := int(c.ids[killIdx]), int(c.ids[slowIdx])
	if err := c.KillNode(killIdx); err != nil {
		t.Fatal(err)
	}
	c.Nodes()[slowIdx].SetDelay(time.Second)

	// Drive queries and the health loop until both nodes are
	// quarantined. Queries must stay correct throughout — the §4.4
	// repair path covers the failing arcs while evidence accumulates.
	quarantined := func(id int) bool {
		for _, qid := range c.Coord.Quarantined() {
			if qid == id {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(15 * time.Second)
	for !quarantined(killID) || !quarantined(slowID) {
		if time.Now().After(deadline) {
			t.Fatalf("nodes never quarantined: quarantined=%v scores: kill=%.1f slow=%.1f",
				c.Coord.Quarantined(), c.Coord.HealthScore(c.ids[killIdx]), c.Coord.HealthScore(c.ids[slowIdx]))
		}
		for _, fe := range fes {
			res, err := fe.Query(context.Background(), frontend.QuerySpec{Enc: q})
			if err != nil {
				t.Fatalf("query during failure accumulation: %v", err)
			}
			checkIDSet(t, res, want, "during suspicion")
		}
		c.PumpHealth()
	}

	// The quarantine view must have reached the frontends (PumpHealth
	// re-pulls on epoch skew) and demoted both nodes.
	for i, fe := range fes {
		for _, id := range []int{killID, slowID} {
			if st := fe.Health()[id]; st != "quarantined" {
				t.Fatalf("frontend %d: node %d state %q, want quarantined", i, id, st)
			}
		}
	}

	// Zero dispatches while quarantined: let in-flight work drain, then
	// run a batch of queries on both frontends and require the
	// slow-walked node's arrival counter to stay flat. (The killed
	// node's server is gone; the slow one is the interesting assertion.)
	time.Sleep(300 * time.Millisecond)
	pre := arrivals(c, slowIdx)
	preFailures := 0
	for round := 0; round < 5; round++ {
		for _, fe := range fes {
			res, err := fe.Query(context.Background(), frontend.QuerySpec{Enc: q})
			if err != nil {
				t.Fatalf("query while quarantined: %v", err)
			}
			checkIDSet(t, res, want, "while quarantined")
			preFailures += res.Failures
		}
	}
	if got := arrivals(c, slowIdx); got != pre {
		t.Fatalf("quarantined node received %d dispatches", got-pre)
	}
	if preFailures != 0 {
		t.Errorf("queries against a quarantined-aware view still hit the failure path %d times", preFailures)
	}

	// Recovery: the slow node speeds back up. Background probes gather
	// the evidence, the health pump reports it, and the coordinator
	// must lift the quarantine and republish.
	c.Nodes()[slowIdx].SetDelay(0)
	for quarantined(slowID) {
		if time.Now().After(deadline) {
			t.Fatalf("slow node never un-quarantined; score %.1f", c.Coord.HealthScore(c.ids[slowIdx]))
		}
		time.Sleep(20 * time.Millisecond)
		c.PumpHealth()
	}
	if quarantined(killID) {
		t.Log("killed node correctly remains quarantined")
	} else {
		t.Error("killed node was un-quarantined without recovery evidence")
	}

	// And the recovered node must be genuinely rescheduled.
	recovered := arrivals(c, slowIdx)
	for arrivals(c, slowIdx) == recovered {
		if time.Now().After(deadline) {
			t.Fatalf("recovered node never rescheduled; health fe0=%v", c.FE.Health()[slowID])
		}
		for _, fe := range fes {
			res, err := fe.Query(context.Background(), frontend.QuerySpec{Enc: q})
			if err != nil {
				t.Fatalf("post-recovery query: %v", err)
			}
			checkIDSet(t, res, want, "post recovery")
		}
		c.PumpHealth()
	}
	t.Logf("loop closed: suspicion → quarantine (scores kill=%.1f slow=%.1f) → recovery → rescheduled",
		c.Coord.HealthScore(c.ids[killIdx]), c.Coord.HealthScore(c.ids[slowIdx]))
}

// TestClusterChaosHedgeBudget is the broad-slowness acceptance test:
// with EVERY node slow-walked past the hedge delay, an un-budgeted
// frontend would hedge every sub-query and double the offered load;
// the token bucket must keep hedged legs within HedgeBudgetFraction of
// primaries (plus the burst), while results stay correct.
func TestClusterChaosHedgeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is not short")
	}
	const (
		nodes    = 8
		p        = 4
		queries  = 40
		fraction = 0.05
		burst    = 2
	)
	c, err := Start(Options{
		Nodes: nodes, P: p, Seed: 13,
		Frontend: frontend.Config{
			PQ:                  nodes,
			SubQueryTimeout:     2 * time.Second,
			HedgeDelay:          5 * time.Millisecond,
			HedgeBudgetFraction: fraction,
			HedgeBudgetBurst:    burst,
			ProbeInterval:       -1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want, q := chaosCorpus(t, c)

	// Global slowness: every sub-query crosses the hedge delay.
	for i := range c.Nodes() {
		c.Nodes()[i].SetDelay(15 * time.Millisecond)
	}
	var primaries, hedged, denied int
	for i := 0; i < queries; i++ {
		res, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		checkIDSet(t, res, want, "global slowness")
		primaries += res.SubQueries - res.HedgedSubs
		hedged += res.HedgedSubs
		denied += res.HedgesDenied
	}
	// The bucket admits fraction per primary plus the initial burst;
	// the idle trickle at fraction/sec adds well under one token over
	// this test's runtime — 2 tokens of slack absorbs it.
	limit := int(fraction*float64(primaries)) + burst + 2
	t.Logf("primaries=%d hedged=%d denied=%d (limit %d)", primaries, hedged, denied, limit)
	if hedged > limit {
		t.Fatalf("hedged legs %d exceed budget limit %d (fraction %.2f of %d primaries + burst %d)",
			hedged, limit, fraction, primaries, burst)
	}
	if denied == 0 {
		t.Fatal("budget never denied a hedge under global slowness; the rate limit is not engaging")
	}
	if hedged == 0 {
		t.Fatal("budget denied every hedge; burst tokens should have admitted some")
	}
}
