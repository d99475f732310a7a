package frontend

import (
	"context"
	"errors"
	"testing"
	"time"

	"roar/internal/pps"
	"roar/internal/ring"
)

// TestViewQuarantineDemotesNode: a view flagging a node quarantined
// makes it unschedulable — zero dispatches — without dropping it from
// the ring, and a later view clearing the flag re-admits it through
// the recovering state.
func TestViewQuarantineDemotesNode(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 8, 4)
	loadAll(t, nodes, enc, []string{"aa", "bb"})
	fe := New(Config{PQ: 8, ProbeInterval: -1})
	defer fe.Close()
	const qIdx = 2
	v.Nodes[qIdx].Quarantined = true
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	if st := fe.Health()[qIdx]; st != "quarantined" {
		t.Fatalf("state = %q, want quarantined", st)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	for i := 0; i < 5; i++ {
		res, err := fe.Query(context.Background(), QuerySpec{Enc: q})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IDs) != 1 {
			t.Fatalf("quarantine-aware plan lost results: %d ids", len(res.IDs))
		}
		if res.Failures != 0 {
			t.Fatalf("planning around a quarantined node must not hit the failure path")
		}
	}
	if got := nodes[qIdx].Stats().Queries; got != 0 {
		t.Fatalf("quarantined node received %d sub-queries", got)
	}
	// failedNodes reports only local suspicion, not the view's verdict.
	if got := failedNodes(fe); len(got) != 0 {
		t.Fatalf("failedNodes echoes the quarantine back: %v", got)
	}

	// The membership layer lifts the quarantine: recovering, then used.
	v.Nodes[qIdx].Quarantined = false
	v.Epoch = 2
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	if st := fe.Health()[qIdx]; st != "recovering" {
		t.Fatalf("lifted quarantine state = %q, want recovering", st)
	}
	deadline := time.Now().Add(3 * time.Second)
	for nodes[qIdx].Stats().Queries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("re-admitted node never rescheduled")
		}
		if _, err := fe.Query(context.Background(), QuerySpec{Enc: q}); err != nil {
			t.Fatal(err)
		}
	}
	if st := fe.Health()[qIdx]; st != "healthy" {
		t.Errorf("state after successful contact = %q, want healthy", st)
	}
}

// TestShedLowPriorityUnderOverload: past the shed high-water mark,
// PriorityLow queries are rejected with ErrShed before admission while
// normal-priority work proceeds, and the shed count rides the next
// health report.
func TestShedLowPriorityUnderOverload(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 2, 1)
	loadAll(t, nodes, enc, []string{"aa"})
	fe := New(Config{ShedHighWater: 5, ProbeInterval: -1})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})

	// Below the mark nothing sheds.
	if _, err := fe.Query(context.Background(), QuerySpec{Enc: q, Priority: PriorityLow}); err != nil {
		t.Fatalf("low-priority query shed below high water: %v", err)
	}

	// Simulate deep remote queues (the depth reports nodes piggyback).
	fe.mu.RLock()
	for _, h := range fe.nodes {
		h.mu.Lock()
		h.depth = 9
		h.mu.Unlock()
	}
	fe.mu.RUnlock()

	if _, err := fe.Query(context.Background(), QuerySpec{Enc: q, Priority: PriorityLow}); !errors.Is(err, ErrShed) {
		t.Fatalf("low-priority query err = %v, want ErrShed", err)
	}
	if res, err := fe.Query(context.Background(), QuerySpec{Enc: q}); err != nil || len(res.IDs) != 1 {
		t.Fatalf("normal-priority query under overload: ids=%d err=%v", len(res.IDs), err)
	}
	// Execute succeeded against real nodes, whose genuine depth reports
	// just cleared the simulated congestion — so only the first low-
	// priority rejection is in the ledger.
	rep := fe.HealthReport()
	if rep.Shed != 1 {
		t.Fatalf("HealthReport.Shed = %d, want 1", rep.Shed)
	}
	if rep := fe.HealthReport(); rep.Shed != 0 {
		t.Fatalf("shed counter must reset between reports, got %d", rep.Shed)
	}
}

// TestHealthReportCountersDelta: report counters are deltas — a
// suspicion shows up once and resets; queue depth and speed ride along.
func TestHealthReportCountersDelta(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 3, 1)
	loadAll(t, nodes, enc, []string{"aa"})
	fe := New(Config{Name: "fe-test", ProbeInterval: -1})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	fe.MarkFailed(ring.NodeID(1))
	rep := fe.HealthReport()
	if rep.FE != "fe-test" || rep.Seq != 1 {
		t.Fatalf("report identity = %q/%d, want fe-test/1", rep.FE, rep.Seq)
	}
	var got *int
	for i := range rep.Nodes {
		if rep.Nodes[i].ID == 1 {
			got = &rep.Nodes[i].Suspicions
		}
	}
	if got == nil || *got != 1 {
		t.Fatalf("suspicion missing from report: %+v", rep.Nodes)
	}
	rep2 := fe.HealthReport()
	if rep2.Seq != 2 {
		t.Fatalf("Seq = %d, want 2", rep2.Seq)
	}
	for _, nh := range rep2.Nodes {
		if nh.Suspicions != 0 || nh.ProbeOKs != 0 || nh.ProbeFails != 0 || nh.Contacts != 0 {
			t.Fatalf("counters did not reset: %+v", nh)
		}
	}

	// A report whose delivery failed is re-credited: its deltas must
	// ride the next snapshot instead of being lost.
	fe.RestoreHealthReport(rep)
	rep3 := fe.HealthReport()
	restored := false
	for _, nh := range rep3.Nodes {
		if nh.ID == 1 && nh.Suspicions == 1 {
			restored = true
		}
	}
	if !restored {
		t.Fatalf("restored evidence missing from the next report: %+v", rep3.Nodes)
	}
	_ = nodes
}

// TestHealthReportAutoscaleTelemetry pins the autoscale extension's
// delta/gauge semantics: shed-by-priority and hedge-denial counters
// reset per report and are re-credited on restore; the queue-wait and
// per-node latency digests are rolling gauges.
func TestHealthReportAutoscaleTelemetry(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 2, 1)
	loadAll(t, nodes, enc, []string{"aa"})
	fe := New(Config{Name: "fe-test", ProbeInterval: -1})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	fe.shedNorm.Add(3)
	fe.hdgDenied.Add(7)
	// Warm the queue-wait and one node's latency tracker past the
	// quantile floor.
	for i := 0; i < latWarmup; i++ {
		fe.queueLat.observe(2 * time.Millisecond)
		fe.observeLatency(ring.NodeID(0), 5*time.Millisecond)
	}

	rep := fe.HealthReport()
	if rep.ShedNormal != 3 || rep.HedgesDenied != 7 {
		t.Fatalf("extension counters = %d/%d, want 3/7", rep.ShedNormal, rep.HedgesDenied)
	}
	if rep.QueueP50Nanos <= 0 || rep.QueueP99Nanos < rep.QueueP50Nanos {
		t.Fatalf("queue digest broken: p50=%d p99=%d", rep.QueueP50Nanos, rep.QueueP99Nanos)
	}
	var lat0 int64
	for _, nh := range rep.Nodes {
		if nh.ID == 0 {
			lat0 = nh.LatP99Nanos
		} else if nh.LatP99Nanos != 0 {
			t.Fatalf("cold node %d grew a latency digest: %d", nh.ID, nh.LatP99Nanos)
		}
	}
	if lat0 <= 0 {
		t.Fatalf("warmed node's latency digest missing: %+v", rep.Nodes)
	}

	// Counters are deltas; digests are gauges.
	rep2 := fe.HealthReport()
	if rep2.ShedNormal != 0 || rep2.HedgesDenied != 0 {
		t.Fatalf("extension counters did not reset: %+v", rep2)
	}
	if rep2.QueueP99Nanos == 0 {
		t.Fatal("queue-wait gauge reset with the counters")
	}

	// A failed delivery re-credits the counter deltas.
	fe.RestoreHealthReport(rep)
	rep3 := fe.HealthReport()
	if rep3.ShedNormal != 3 || rep3.HedgesDenied != 7 {
		t.Fatalf("restore lost extension counters: %+v", rep3)
	}
}
