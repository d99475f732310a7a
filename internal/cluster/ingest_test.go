package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"roar/internal/frontend"
	"roar/internal/pps"
)

// Chaos end-to-end tests for the durable ingest pipeline: records are
// accepted into the WAL, a node (or the coordinator itself) dies
// mid-drain, and the system must converge to the exact id set of an
// undisturbed run — with duplicate deliveries never changing a node's
// record count.

// ingestCorpus builds the 60-document chaos corpus (every 3rd document
// carries the target keyword) WITHOUT loading it — the tests push it
// through the async ingest path themselves.
func ingestCorpus(t *testing.T, enc *pps.Encoder) ([]pps.Encoded, map[uint64]bool, pps.Query) {
	t.Helper()
	want := map[uint64]bool{}
	var recs []pps.Encoded
	for i := 0; i < 60; i++ {
		kw := "filler"
		if i%3 == 0 {
			kw = "target"
		}
		id := uint64(i+1) << 32
		rec, err := enc.EncryptDocument(pps.Document{
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
	q, err := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "target"})
	if err != nil {
		t.Fatal(err)
	}
	return recs, want, q
}

// liveStoreLens snapshots every node's record count except the skipped
// (killed) index; -1 skips nothing.
func liveStoreLens(c *Cluster, skip int) map[int]int {
	out := map[int]int{}
	for i, n := range c.Nodes() {
		if i == skip {
			continue
		}
		out[i] = n.Store().Len()
	}
	return out
}

// TestClusterIngestReplay is the pipeline's crash acceptance test: a
// record acknowledged by the WAL before a node crash must be queryable
// after decommission + replay. A node is killed mid-drain, the batch
// stalls against it, and the decommission re-routes delivery to the
// replacement holders — the id set must come out identical to a
// no-failure run, and re-delivering the whole corpus must not change
// any node's record count.
func TestClusterIngestReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is not short")
	}
	const (
		nodes   = 8
		p       = 4 // node ranges 1/8 < 1/p−δ: §4.4 repair always covers
		killIdx = 3
	)
	c, err := Start(Options{
		Nodes: nodes, P: p, Seed: 17,
		IngestDir:   t.TempDir(),
		IngestBatch: 4, // several drain rounds per phase: the kill lands mid-drain
		Frontend: frontend.Config{
			Name:            "fe-ingest",
			PQ:              nodes,
			SubQueryTimeout: 250 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recs, want, q := ingestCorpus(t, c.Enc)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Healthy phase: the first half drains and is queryable — the
	// no-failure reference behaviour.
	seq, err := c.IngestPut(ctx, recs[:30]...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitIngestDrained(ctx, seq); err != nil {
		t.Fatal(err)
	}
	wantHalf := map[uint64]bool{}
	for i := 0; i < 30; i += 3 {
		wantHalf[uint64(i+1)<<32] = true
	}
	res, err := c.Query(ctx, pps.And, pps.Predicate{Kind: pps.Keyword, Word: "target"})
	if err != nil {
		t.Fatal(err)
	}
	checkIDSet(t, res, wantHalf, "healthy drain")

	// Crash phase: accept the second half into the WAL, then kill a
	// node while the drain is in flight. Batches routed to the dead
	// node stall — acceptance stays durable, delivery waits.
	seq, err = c.IngestPut(ctx, recs[30:]...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.KillNode(killIdx); err != nil {
		t.Fatal(err)
	}

	// Decommission the dead node. Replay needs no special path: the
	// next delivery attempt re-routes to the arc's new holders and the
	// WAL replays the affected records into them.
	if err := c.RecoverFailure(ctx, killIdx); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitIngestDrained(ctx, seq); err != nil {
		t.Fatalf("drain never converged after decommission: %v", err)
	}

	// Every record accepted before the crash is queryable, and the id
	// set is exactly the no-failure set.
	res, err = c.FE.Query(ctx, frontend.QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	checkIDSet(t, res, want, "after decommission + replay")

	// Idempotency: re-deliver the ENTIRE corpus. Duplicate deliveries
	// must never change a node's record count.
	before := liveStoreLens(c, killIdx)
	seq, err = c.IngestPut(ctx, recs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitIngestDrained(ctx, seq); err != nil {
		t.Fatal(err)
	}
	after := liveStoreLens(c, killIdx)
	for i, n := range before {
		if after[i] != n {
			t.Fatalf("duplicate delivery changed node %d record count %d→%d", i, n, after[i])
		}
	}
	res, err = c.FE.Query(ctx, frontend.QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	checkIDSet(t, res, want, "after duplicate re-delivery")
}

// TestClusterIngestFailoverResume kills the control-plane leader while
// it is draining: the new leader must resume the drain from the
// log-replicated watermark against the shared WAL, re-delivering at
// most the un-replicated tail — which node-side dedup absorbs. The
// producer's appends retry on whichever replica leads next.
func TestClusterIngestFailoverResume(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is not short")
	}
	const (
		nodes = 6
		p     = 3
	)
	hc, err := Start(Options{
		Replicas: 3, Nodes: nodes, P: p, Seed: 29,
		Lease:       250 * time.Millisecond,
		Heartbeat:   60 * time.Millisecond,
		IngestDir:   t.TempDir(),
		IngestBatch: 4,
		Frontend: frontend.Config{
			Name:            "fe-ha-ingest",
			PQ:              nodes,
			SubQueryTimeout: 250 * time.Millisecond,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	recs, want, q := ingestCorpus(t, hc.Enc)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	leader, err := hc.WaitLeader(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	leaderIdx := hc.ReplicaIndex(leader)

	// Accept the whole corpus through the leader's WAL, then kill the
	// leader while its consumer is mid-drain.
	var lastSeq uint64
	for at := 0; at < len(recs); at += 10 {
		seq, err := hc.IngestPut(ctx, recs[at:at+10]...)
		if err != nil {
			t.Fatalf("ingest batch at %d: %v", at, err)
		}
		lastSeq = seq
	}
	killedAt := time.Now()
	hc.KillReplica(leaderIdx)

	next, err := hc.WaitLeader(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if next == leader {
		t.Fatal("killed leader still leads")
	}
	t.Logf("failover took %v; new leader resumes drain from replicated watermark", time.Since(killedAt))

	// The new leader drains the rest from the shared WAL.
	if err := hc.WaitIngestDrained(ctx, lastSeq); err != nil {
		t.Fatalf("drain never resumed on the new leader: %v", err)
	}

	// The frontend fails over and the id set is exactly the
	// no-failure set.
	if err := hc.SyncView(); err != nil {
		t.Fatal(err)
	}
	res, err := hc.FE.Query(ctx, frontend.QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	checkIDSet(t, res, want, "after leader failover")

	// Re-deliver everything through the NEW leader: at-least-once
	// duplicates (including the watermark lag re-delivered at takeover)
	// must never change a node's record count.
	before := make([]int, nodes)
	for i, n := range hc.Nodes() {
		before[i] = n.Store().Len()
	}
	seq, err := hc.IngestPut(ctx, recs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := hc.WaitIngestDrained(ctx, seq); err != nil {
		t.Fatal(err)
	}
	for i, n := range hc.Nodes() {
		if got := n.Store().Len(); got != before[i] {
			t.Fatalf("duplicate delivery changed node %d record count %d→%d", i, before[i], got)
		}
	}
	res, err = hc.FE.Query(ctx, frontend.QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	checkIDSet(t, res, want, "after duplicate re-delivery")
}
