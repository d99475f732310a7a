package frontend

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"roar/internal/membership"
	"roar/internal/node"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/wire"
)

// The recovery and hedging tests use n == pq (8 equal nodes, p = 4,
// PQ = 8) so every node owns exactly one probe point of every plan: the
// slow node cannot be scheduled around, which makes timeout, hedge, and
// re-use deterministic. Node ranges (1/8) stay below the 1/p−δ bracket
// span, so the §4.4 fallback around a suspected node always has valid
// replacement pairs.

// TestRecoveryAfterTransientSlowness is the un-stick test for the
// one-way failure ratchet: a node that times out once (slow, not dead)
// is suspected, then probed back, then actually rescheduled.
func TestRecoveryAfterTransientSlowness(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 8, 4)
	loadAll(t, nodes, enc, []string{"aa", "bb"})
	fe := New(Config{
		PQ:              8,
		SubQueryTimeout: 120 * time.Millisecond,
		ProbeInterval:   30 * time.Millisecond,
	})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})

	// Phase 1: node 0 is slow beyond the sub-query timer. Every plan
	// must touch it (n == pq), so the first query suspects it and
	// recovers the harvest through the §4.4 fallback.
	nodes[0].SetDelay(time.Second)
	res, err := fe.Query(context.Background(), QuerySpec{Enc: q})
	if err != nil {
		t.Fatalf("query against slow node: %v", err)
	}
	if len(res.IDs) != 1 {
		t.Fatalf("fallback lost results: got %d ids, want 1", len(res.IDs))
	}
	if res.Failures == 0 {
		t.Fatal("slow node never hit the failure path")
	}
	if got := failedNodes(fe); len(got) != 1 || got[0] != 0 {
		t.Fatalf("failedNodes = %v, want [0]", got)
	}
	preQueries := nodes[0].Stats().Queries

	// Phase 2: the node comes back; the background probe must lift
	// suspicion without any view change or query traffic.
	nodes[0].SetDelay(0)
	deadline := time.Now().Add(3 * time.Second)
	for len(failedNodes(fe)) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("suspicion never cleared; health = %v", fe.Health())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := fe.Health()[0]; st != "healthy" {
		t.Errorf("probed-back node state = %q, want healthy", st)
	}

	// Phase 3: the recovered node is actually rescheduled and stays
	// healthy on its first success.
	for nodes[0].Stats().Queries == preQueries {
		if time.Now().After(deadline) {
			t.Fatalf("recovered node never rescheduled; health = %v", fe.Health())
		}
		if _, err := fe.Query(context.Background(), QuerySpec{Enc: q}); err != nil {
			t.Fatalf("post-recovery query: %v", err)
		}
	}
	if st := fe.Health()[0]; st != "healthy" {
		t.Errorf("node state after successful contact = %q, want healthy", st)
	}
	if got := failedNodes(fe); len(got) != 0 {
		t.Errorf("failedNodes after recovery = %v, want none", got)
	}
}

// TestApplyViewClearsSuspicion pins the satellite bugfix: a retained
// node (same id, same addr) must not keep failed=true forever across
// view updates.
func TestApplyViewClearsSuspicion(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 4, 2)
	loadAll(t, nodes, enc, []string{"aa"})
	fe := New(Config{ProbeInterval: -1}) // isolate the ApplyView path
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	fe.MarkFailed(ring.NodeID(2))
	if got := failedNodes(fe); len(got) != 1 || got[0] != 2 {
		t.Fatalf("failedNodes = %v, want [2]", got)
	}
	v2 := v
	v2.Epoch = 2
	if err := fe.ApplyView(v2); err != nil {
		t.Fatal(err)
	}
	if got := failedNodes(fe); len(got) != 0 {
		t.Errorf("retained node kept suspicion across ApplyView: %v", got)
	}
	if st := fe.Health()[2]; st != "healthy" {
		t.Errorf("retained node state = %q, want healthy", st)
	}
}

// TestHedgeWinsAndCancelsLoser: a slow (not failed) node is hedged onto
// replicas before the failure timer; the hedge wins, the result is
// complete and duplicate-free, and the losing primary call is cancelled
// all the way into the node's matcher.
func TestHedgeWinsAndCancelsLoser(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 8, 4)
	loadAll(t, nodes, enc, []string{"aa", "bb", "aa"})
	fe := New(Config{
		PQ:            8,
		HedgeDelay:    30 * time.Millisecond,
		ProbeInterval: -1,
	})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	const slowFor = 600 * time.Millisecond
	nodes[0].SetDelay(slowFor)
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	start := time.Now()
	res, err := fe.Query(context.Background(), QuerySpec{Enc: q})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 2 {
		t.Fatalf("hedged query returned %d ids, want 2", len(res.IDs))
	}
	for i := 1; i < len(res.IDs); i++ {
		if res.IDs[i] <= res.IDs[i-1] {
			t.Fatalf("duplicate or unsorted ids after hedge merge: %v", res.IDs)
		}
	}
	if res.Hedges == 0 || res.HedgeWins == 0 {
		t.Fatalf("expected a winning hedge, got hedges=%d wins=%d", res.Hedges, res.HedgeWins)
	}
	if res.Failures != 0 {
		t.Errorf("hedging must not count as failure, got %d", res.Failures)
	}
	if wall >= slowFor {
		t.Errorf("query took %v, did not beat the %v slow primary", wall, slowFor)
	}
	// Hedging is speculative: the slow primary must NOT be suspected.
	if got := failedNodes(fe); len(got) != 0 {
		t.Errorf("hedged-away node was suspected: %v", got)
	}
	// The losing call must have been cancelled server-side: the slow
	// node never completes the match (its counter stays flat) and
	// records the abort.
	time.Sleep(slowFor + 100*time.Millisecond)
	st := nodes[0].Stats()
	if st.Queries != 0 {
		t.Errorf("losing primary ran to completion (%d queries); cancellation never reached the node", st.Queries)
	}
	if st.Canceled == 0 {
		t.Error("node never recorded the cancelled sub-query")
	}
}

// TestNodeCreditBackpressure: with a per-node outstanding cap of 1,
// concurrent dispatches to one node serialise on its credit channel.
func TestNodeCreditBackpressure(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testViewCost(t, enc, 1, 1, 40*time.Millisecond)
	loadAll(t, nodes, enc, []string{"aa"})
	fe := New(Config{NodeMaxOutstanding: 1, ProbeInterval: -1})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	const clients = 4
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := fe.Query(context.Background(), QuerySpec{Enc: q}); err != nil || len(res.IDs) != 1 {
				t.Errorf("execute: ids=%d err=%v", len(res.IDs), err)
			}
		}()
	}
	wg.Wait()
	// One credit: the node sees the 40ms sub-queries one at a time.
	if d := time.Since(start); d < clients*40*time.Millisecond {
		t.Errorf("4 capped queries finished in %v; credit cap not enforced", d)
	}
	if peak := nodes[0].Stats().PeakConcurrency; peak > 1 {
		t.Errorf("node peak concurrency %d under a 1-credit cap", peak)
	}
}

// TestBreakdownRecordsFailedQueries: a query that ends in error still
// returns its phase breakdown — those are exactly the delays worth
// diagnosing.
func TestBreakdownRecordsFailedQueries(t *testing.T) {
	enc := slimEncoder()
	// A view whose only node is a dead address: every dispatch fails.
	v := proto.View{Epoch: 1, P: 1, Nodes: []proto.NodeInfo{
		{ID: 0, Ring: 0, Start: 0, Addr: "127.0.0.1:1"},
	}}
	fe := New(Config{SubQueryTimeout: 100 * time.Millisecond, ProbeInterval: -1})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	res, err := fe.Query(context.Background(), QuerySpec{Enc: q})
	if err == nil {
		t.Fatal("query against a dead-only view must fail")
	}
	if res.Dispatch <= 0 || res.Delay < res.Dispatch {
		t.Errorf("failed query's phases not returned: %+v", res)
	}
}

// TestEstimatorUsesReportedDepth: a node that reports a deep queue is
// estimated slower than an idle one at equal speed.
func TestEstimatorUsesReportedDepth(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 2, 1)
	loadAll(t, nodes, enc, []string{"aa"})
	fe := New(Config{ProbeInterval: -1})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	fe.mu.RLock()
	h0 := fe.nodes[0]
	fe.mu.RUnlock()
	h0.mu.Lock()
	h0.depth = 8
	h0.mu.Unlock()
	est := fe.estimator()
	deep := est.EstimateFinish(0, 0.5)
	idle := est.EstimateFinish(1, 0.5)
	if deep <= idle {
		t.Errorf("deep-queue node estimated %.3f, idle %.3f; depth ignored", deep, idle)
	}
	_ = nodes
}

// TestProbeQuarantinesIdleDeadNode: a node that dies while no query is
// in flight, and whose last reported queue depth keeps the scheduler
// away from it, is still noticed. Each round probes every node in the
// view and pushes one report: the dead node is suspected after the
// first round and quarantined after ⌈threshold⌉ rounds, while a live
// node's stale depth refreshes. Probing is driven by hand and no query
// runs at all.
func TestProbeQuarantinesIdleDeadNode(t *testing.T) {
	const (
		n         = 4
		threshold = 3
		deadIdx   = 1
		busyIdx   = 2
	)
	enc := slimEncoder()
	coord, err := membership.New(membership.Config{P: 2,
		Health: membership.HealthConfig{QuarantineThreshold: threshold}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	var servers []*wire.Server
	var ids []ring.NodeID
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
		servers = append(servers, srv)
		jr, err := coord.Join(context.Background(), srv.Addr(), 1)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ring.NodeID(jr.ID))
	}
	fe := New(Config{Name: "fe-0", ProbeInterval: -1})
	defer fe.Close()
	if err := fe.ApplyView(coord.View()); err != nil {
		t.Fatal(err)
	}
	deadID, busyID := ids[deadIdx], ids[busyIdx]
	// Both nodes last reported a deep queue (a surge that has passed).
	for _, id := range []ring.NodeID{deadID, busyID} {
		fe.mu.RLock()
		h := fe.nodes[id]
		fe.mu.RUnlock()
		h.mu.Lock()
		h.depth = 9
		h.mu.Unlock()
	}
	if err := servers[deadIdx].Close(); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= threshold; round++ {
		fe.probeAll(time.Second)
		if st := fe.Health()[int(deadID)]; round == 1 && st != "suspected" {
			t.Fatalf("round 1: dead node is %q, want suspected", st)
		}
		if _, err := coord.ReportHealth(fe.HealthReport()); err != nil {
			t.Fatal(err)
		}
		quarantined := slices.Contains(coord.Quarantined(), int(deadID))
		if quarantined != (round == threshold) {
			t.Fatalf("round %d: quarantined=%v (score %v), want quarantine at round %d",
				round, quarantined, coord.HealthScore(deadID), threshold)
		}
	}
	if got := coord.Quarantined(); len(got) != 1 {
		t.Fatalf("quarantined %v, want only node %d", got, deadID)
	}
	if err := fe.ApplyView(coord.View()); err != nil {
		t.Fatal(err)
	}
	if st := fe.Health()[int(deadID)]; st != "quarantined" {
		t.Errorf("after the view: dead node is %q, want quarantined", st)
	}
	fe.mu.RLock()
	busy := fe.nodes[busyID]
	fe.mu.RUnlock()
	if _, _, depth := busy.loadSnapshot(); depth != 0 {
		t.Errorf("live node's depth is still %d after a probe round, want its idle 0", depth)
	}
}
