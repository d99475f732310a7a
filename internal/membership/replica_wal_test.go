package membership

import (
	"context"
	"sync/atomic"
	"testing"

	"roar/internal/ingest"
)

// TestReplicaLazyWALOpenAndHandoff pins the WAL lifecycle: replicas
// sharing a WAL directory must open it only on winning an election — opening at startup races the peers on segment creation
// and leaves followers with handles that go stale the moment the
// leader appends. On failover the successor's fresh open must see
// everything the previous leader fsynced.
func TestReplicaLazyWALOpenAndHandoff(t *testing.T) {
	dir := t.TempDir()
	var opens atomic.Int32
	reps, _ := startReplicas(t, 3, ReplicaConfig{
		Coordinator: Config{P: 1},
		OpenWAL: func() (*ingest.WAL, error) {
			opens.Add(1)
			return ingest.Open(dir, ingest.Options{})
		},
	})

	leader := waitLeader(t, reps)
	if got := opens.Load(); got != 1 {
		t.Fatalf("%d WAL opens after first election, want 1 (leader only)", got)
	}

	// Durably accept records through the leader's handle. No nodes have
	// joined, so the drain stalls — acceptance must not care.
	enc := slimEncoder()
	recs := corpus(t, enc, 3)
	seq, err := leaderCoord(t, leader).IngestAppend(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("IngestAppend seq = %d, want 3", seq)
	}

	// Kill the leader. Its coordinator owns the handle and closes it;
	// the successor's OpenWAL scan must pick up the fsynced frames.
	leader.Stop()
	next := waitLeader(t, reps)
	if next == leader {
		t.Fatal("stopped leader still leads")
	}
	if got := opens.Load(); got != 2 {
		t.Fatalf("%d WAL opens after failover, want 2", got)
	}
	seq, err = leaderCoord(t, next).IngestAppend(context.Background(), recs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("successor's append got seq %d, want 4 (old leader's 3 frames recovered)", seq)
	}
}
