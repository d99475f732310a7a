package membership

import (
	"context"
	"testing"

	"roar/internal/proto"
	"roar/internal/ring"
)

// healthCoordinator joins n real nodes and returns the coordinator plus
// its node ids.
func healthCoordinator(t *testing.T, n int, hc HealthConfig) (*Coordinator, []ring.NodeID) {
	t.Helper()
	enc := slimEncoder()
	_, addrs := startNodes(t, enc, n)
	c, err := New(Config{P: 2, Health: hc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ids := make([]ring.NodeID, n)
	for i, a := range addrs {
		jr, err := c.Join(context.Background(), a, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = ring.NodeID(jr.ID)
	}
	return c, ids
}

// report builds a one-node health report from fe with the given deltas.
func report(fe string, seq uint64, nh ...proto.NodeHealth) proto.HealthReport {
	return proto.HealthReport{FE: fe, Seq: seq, Nodes: nh}
}

// TestHealthAggregationQuarantinesAndRecovers walks the whole
// aggregator state machine: failure evidence accumulates across
// frontends and report intervals, crosses the threshold, the node is
// quarantined in the published view (still present, demoted), and
// answers drain the score until it is re-admitted.
func TestHealthAggregationQuarantinesAndRecovers(t *testing.T) {
	c, ids := healthCoordinator(t, 4, HealthConfig{QuarantineThreshold: 3})
	bad := ids[1]
	epoch0 := c.Epoch()

	// Two frontends each report one failure: 2 < 3, no quarantine.
	c.ReportHealth(report("a", 1, proto.NodeHealth{ID: int(bad), Fails: 1}))
	c.ReportHealth(report("b", 1, proto.NodeHealth{ID: int(bad), Fails: 1}))
	if got := c.Quarantined(); len(got) != 0 {
		t.Fatalf("quarantined below threshold: %v", got)
	}
	if got := c.HealthScore(bad); got != 2 {
		t.Fatalf("score = %v, want 2", got)
	}

	// A third frontend's failure crosses the threshold.
	resp, _ := c.ReportHealth(report("c", 1, proto.NodeHealth{ID: int(bad), Fails: 1}))
	if got := c.Quarantined(); len(got) != 1 || got[0] != int(bad) {
		t.Fatalf("Quarantined = %v, want [%d]", got, bad)
	}
	if resp.Epoch == epoch0 {
		t.Fatal("quarantine must bump the view epoch")
	}
	// The view keeps the node — demoted, not dropped.
	v := c.View()
	var found, flagged bool
	for _, ni := range v.Nodes {
		if ni.ID == int(bad) {
			found, flagged = true, ni.Quarantined
		} else if ni.Quarantined {
			t.Fatalf("healthy node %d flagged quarantined", ni.ID)
		}
	}
	if !found || !flagged {
		t.Fatalf("quarantined node in view: found=%v flagged=%v", found, flagged)
	}

	// Recovery evidence: answers drain the score to zero, which
	// un-quarantines and republishes.
	epochQ := c.Epoch()
	for i := 0; i < 20 && len(c.Quarantined()) > 0; i++ {
		c.ReportHealth(report("a", uint64(2+i), proto.NodeHealth{ID: int(bad), OKs: 2}))
	}
	if got := c.Quarantined(); len(got) != 0 {
		t.Fatalf("answers never recovered the node: %v (score %v)", got, c.HealthScore(bad))
	}
	if c.Epoch() == epochQ {
		t.Fatal("recovery must bump the view epoch")
	}
	for _, ni := range c.View().Nodes {
		if ni.Quarantined {
			t.Fatalf("recovered view still flags node %d", ni.ID)
		}
	}
}

// TestHealthContactsOutweighStaleSuspicion: a node that answers sheds
// old evidence fast, but goodwill is capped — answers cannot bank
// unbounded credit against future failures.
func TestHealthContactsOutweighStaleSuspicion(t *testing.T) {
	c, ids := healthCoordinator(t, 3, HealthConfig{QuarantineThreshold: 3})
	id := int(ids[0])
	c.ReportHealth(report("a", 1, proto.NodeHealth{ID: id, Fails: 2}))
	c.ReportHealth(report("a", 2, proto.NodeHealth{ID: id, OKs: 500}))
	if got := c.HealthScore(ids[0]); got != 0 {
		t.Fatalf("score after healthy interval = %v, want 0", got)
	}
	// The capped goodwill means 2 fresh failures in later intervals
	// still count in full.
	c.ReportHealth(report("a", 3, proto.NodeHealth{ID: id, Fails: 2}))
	if got := c.HealthScore(ids[0]); got != 2 {
		t.Fatalf("fresh failures discounted by banked goodwill: score %v, want 2", got)
	}
}

// TestHealthMaxQuarantineFraction: correlated slowness must not let the
// aggregator quarantine the whole cluster out of scheduling.
func TestHealthMaxQuarantineFraction(t *testing.T) {
	c, ids := healthCoordinator(t, 4, HealthConfig{QuarantineThreshold: 1})
	for i, id := range ids {
		c.ReportHealth(report("a", uint64(i+1), proto.NodeHealth{ID: int(id), Fails: 5}))
	}
	if got := len(c.Quarantined()); got != 2 {
		t.Fatalf("quarantined %d of 4 nodes; the 0.5 fraction cap must hold at 2", got)
	}
}

// TestHealthQuarantineCapCountsServingNodes: the fraction cap bounds
// the nodes that serve, not the ones on a powered-down ring. With ring
// 1 dark, 4 of 8 nodes serve, and failing all of them may quarantine
// only 2.
func TestHealthQuarantineCapCountsServingNodes(t *testing.T) {
	env := newASEnv(t, 8, 2, 2)
	if err := env.c.SetRingEnabled(context.Background(), 1, false); err != nil {
		t.Fatal(err)
	}
	rep := report("a", 1)
	for _, ni := range env.c.View().Nodes {
		rep.Nodes = append(rep.Nodes, proto.NodeHealth{ID: ni.ID, Fails: 5})
	}
	if len(rep.Nodes) != 4 {
		t.Fatalf("%d nodes serving, want 4", len(rep.Nodes))
	}
	env.c.ReportHealth(rep)
	if got := env.c.Quarantined(); len(got) != 2 {
		t.Fatalf("quarantined %v of 4 serving nodes; the 0.5 cap must hold at 2", got)
	}
}

// TestHealthDuplicateReportIgnored: a re-delivered report (same FE, same
// seq) must not double-count its deltas — but a LOWER sequence is a
// frontend restart (counters begin again at 1) and its evidence must
// keep flowing immediately.
func TestHealthDuplicateReportIgnored(t *testing.T) {
	c, ids := healthCoordinator(t, 3, HealthConfig{QuarantineThreshold: 5})
	rep := report("a", 7, proto.NodeHealth{ID: int(ids[0]), Fails: 1})
	c.ReportHealth(rep)
	c.ReportHealth(rep)
	if got := c.HealthScore(ids[0]); got != 1 {
		t.Fatalf("duplicate report double-counted: score %v, want 1", got)
	}
	// Restart: seq drops back to 1; the report must be folded.
	c.ReportHealth(report("a", 1, proto.NodeHealth{ID: int(ids[0]), Fails: 1}))
	if got := c.HealthScore(ids[0]); got != 2 {
		t.Fatalf("restarted frontend's report dropped: score %v, want 2", got)
	}
	// And the restarted incarnation's own continuity works from there.
	c.ReportHealth(report("a", 2, proto.NodeHealth{ID: int(ids[0]), Fails: 1}))
	if got := c.HealthScore(ids[0]); got != 3 {
		t.Fatalf("post-restart report dropped: score %v, want 3", got)
	}
}
