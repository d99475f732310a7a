package membership

import (
	"context"
	"fmt"
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
// aggregator state machine: suspicion evidence accumulates across
// frontends and report intervals, crosses the threshold, the node is
// quarantined in the published view (still present, demoted), and probe
// successes drain the score until it is re-admitted.
func TestHealthAggregationQuarantinesAndRecovers(t *testing.T) {
	c, ids := healthCoordinator(t, 4, HealthConfig{QuarantineThreshold: 3})
	bad := ids[1]
	epoch0 := c.Epoch()

	// Two frontends each report one suspicion: 2 < 3, no quarantine.
	c.ReportHealth(report("a", 1, proto.NodeHealth{ID: int(bad), Suspicions: 1}))
	resp := c.ReportHealth(report("b", 1, proto.NodeHealth{ID: int(bad), Suspicions: 1}))
	if len(resp.Quarantined) != 0 {
		t.Fatalf("quarantined below threshold: %v", resp.Quarantined)
	}
	if got := c.HealthScore(bad); got != 2 {
		t.Fatalf("score = %v, want 2", got)
	}

	// A third frontend's suspicion crosses the threshold.
	resp = c.ReportHealth(report("c", 1, proto.NodeHealth{ID: int(bad), Suspicions: 1}))
	if len(resp.Quarantined) != 1 || resp.Quarantined[0] != int(bad) {
		t.Fatalf("Quarantined = %v, want [%d]", resp.Quarantined, bad)
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

	// Recovery evidence: successful probes drain the score to the
	// recover threshold (0), which un-quarantines and republishes.
	epochQ := c.Epoch()
	for i := 0; i < 20 && len(c.Quarantined()) > 0; i++ {
		c.ReportHealth(report("a", uint64(2+i), proto.NodeHealth{ID: int(bad), ProbeOKs: 2}))
	}
	if got := c.Quarantined(); len(got) != 0 {
		t.Fatalf("probe evidence never recovered the node: %v (score %v)", got, c.HealthScore(bad))
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

// TestHealthContactsOutweighStaleSuspicion: a node with real completions
// sheds old evidence fast, but goodwill is capped — contacts cannot
// bank unbounded credit against future failures.
func TestHealthContactsOutweighStaleSuspicion(t *testing.T) {
	c, ids := healthCoordinator(t, 3, HealthConfig{QuarantineThreshold: 3})
	id := int(ids[0])
	c.ReportHealth(report("a", 1, proto.NodeHealth{ID: id, Suspicions: 2}))
	c.ReportHealth(report("a", 2, proto.NodeHealth{ID: id, Contacts: 500}))
	if got := c.HealthScore(ids[0]); got != 0 {
		t.Fatalf("score after healthy interval = %v, want 0", got)
	}
	// The capped goodwill means 2 fresh suspicions in later intervals
	// still count in full.
	c.ReportHealth(report("a", 3, proto.NodeHealth{ID: id, Suspicions: 2}))
	if got := c.HealthScore(ids[0]); got != 2 {
		t.Fatalf("fresh suspicions discounted by banked goodwill: score %v, want 2", got)
	}
}

// TestHealthMaxQuarantineFraction: correlated slowness must not let the
// aggregator quarantine the whole cluster out of scheduling.
func TestHealthMaxQuarantineFraction(t *testing.T) {
	c, ids := healthCoordinator(t, 4, HealthConfig{QuarantineThreshold: 1, MaxQuarantineFraction: 0.5})
	for i, id := range ids {
		c.ReportHealth(report("a", uint64(i+1), proto.NodeHealth{ID: int(id), Suspicions: 5}))
	}
	if got := len(c.Quarantined()); got != 2 {
		t.Fatalf("quarantined %d of 4 nodes; the 0.5 fraction cap must hold at 2", got)
	}
}

// TestHealthDuplicateReportIgnored: a re-delivered report (same FE, same
// seq) must not double-count its deltas — but a LOWER sequence is a
// frontend restart (counters begin again at 1) and its evidence must
// keep flowing immediately.
func TestHealthDuplicateReportIgnored(t *testing.T) {
	c, ids := healthCoordinator(t, 3, HealthConfig{QuarantineThreshold: 5})
	rep := report("a", 7, proto.NodeHealth{ID: int(ids[0]), Suspicions: 1})
	c.ReportHealth(rep)
	c.ReportHealth(rep)
	if got := c.HealthScore(ids[0]); got != 1 {
		t.Fatalf("duplicate report double-counted: score %v, want 1", got)
	}
	// Restart: seq drops back to 1; the report must be folded.
	c.ReportHealth(report("a", 1, proto.NodeHealth{ID: int(ids[0]), Suspicions: 1}))
	if got := c.HealthScore(ids[0]); got != 2 {
		t.Fatalf("restarted frontend's report dropped: score %v, want 2", got)
	}
	// And the restarted incarnation's own continuity works from there.
	c.ReportHealth(report("a", 2, proto.NodeHealth{ID: int(ids[0]), Suspicions: 1}))
	if got := c.HealthScore(ids[0]); got != 3 {
		t.Fatalf("post-restart report dropped: score %v, want 3", got)
	}
}

// TestHandleFailureIsEvidenceNotRemoval pins the tentpole's semantic
// change: a hard Failed report no longer redistributes the node's range
// — it feeds the aggregator, and enough of them quarantine (never
// remove) the node.
func TestHandleFailureIsEvidenceNotRemoval(t *testing.T) {
	c, ids := healthCoordinator(t, 4, HealthConfig{QuarantineThreshold: 2})
	before := len(c.View().Nodes)
	c.HandleFailure(ids[2])
	if got := len(c.View().Nodes); got != before {
		t.Fatalf("one failure report changed the topology: %d -> %d nodes", before, got)
	}
	if len(c.Quarantined()) != 0 {
		t.Fatal("one failure report quarantined below threshold")
	}
	c.HandleFailure(ids[2])
	if got := c.Quarantined(); len(got) != 1 || got[0] != int(ids[2]) {
		t.Fatalf("repeated failure reports: Quarantined = %v, want [%d]", got, ids[2])
	}
	if got := len(c.View().Nodes); got != before {
		t.Fatalf("quarantine dropped the node from the view: %d -> %d", before, got)
	}
	// Decommission remains the explicit removal path.
	if err := c.Decommission(context.Background(), ids[2]); err != nil {
		t.Fatal(err)
	}
	if got := len(c.View().Nodes); got != before-1 {
		t.Fatalf("Decommission kept the node: %d nodes", got)
	}
	if len(c.Quarantined()) != 0 {
		t.Fatal("Decommission must clear quarantine state")
	}
}

// TestHealthTenantAggregation: per-tenant deltas from multiple
// frontends accumulate into fleet totals, and a tenant-id flood folds
// into the overflow bucket instead of growing without bound.
func TestHealthTenantAggregation(t *testing.T) {
	c, _ := healthCoordinator(t, 1, HealthConfig{})
	repA := report("a", 1)
	repA.Tenants = []proto.TenantLoad{{Tenant: "acme", Admitted: 5, Shed: 1, CacheHits: 3}}
	c.ReportHealth(repA)
	repB := report("b", 1)
	repB.Tenants = []proto.TenantLoad{
		{Tenant: "acme", Admitted: 2, CacheMisses: 4},
		{Tenant: "beta", Shed: 7},
	}
	c.ReportHealth(repB)

	totals := c.TenantTotals()
	if len(totals) != 2 {
		t.Fatalf("got %d tenants, want 2: %v", len(totals), totals)
	}
	if acme := totals[0]; acme.Tenant != "acme" || acme.Admitted != 7 || acme.Shed != 1 ||
		acme.CacheHits != 3 || acme.CacheMisses != 4 {
		t.Errorf("acme totals wrong: %+v", acme)
	}
	if beta := totals[1]; beta.Tenant != "beta" || beta.Shed != 7 {
		t.Errorf("beta totals wrong: %+v", beta)
	}

	// A duplicate report (same FE, same seq) must not double-count.
	c.ReportHealth(repB)
	if got := c.TenantTotals()[1]; got.Shed != 7 {
		t.Errorf("duplicate report double-counted tenant deltas: %+v", got)
	}

	// Flood: past the cap, new ids fold into the overflow bucket.
	h := c.health
	h.mu.Lock()
	for i := len(h.tenants); i < maxTenantTotals; i++ {
		name := fmt.Sprintf("f%05d", i)
		h.tenants[name] = proto.TenantLoad{Tenant: name}
	}
	h.mu.Unlock()
	repC := report("c", 1)
	repC.Tenants = []proto.TenantLoad{{Tenant: "brand-new", Admitted: 9}}
	c.ReportHealth(repC)
	h.mu.Lock()
	_, grewPast := h.tenants["brand-new"]
	over := h.tenants[tenantTotalsOverflow]
	n := len(h.tenants)
	h.mu.Unlock()
	if grewPast || n > maxTenantTotals+1 {
		t.Errorf("tenant flood grew the table: n=%d newTenantTracked=%v", n, grewPast)
	}
	if over.Admitted != 9 {
		t.Errorf("overflow bucket did not absorb the flood delta: %+v", over)
	}
}
