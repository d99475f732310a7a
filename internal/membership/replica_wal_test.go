package membership

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"roar/internal/ingest"
	"roar/internal/store"
	"roar/internal/wire"
)

// TestReplicaLazyWALOpenAndHandoff pins the multi-process WAL
// lifecycle: replicas sharing a WAL *directory* (separate handles, not
// the in-process shared *ingest.WAL) must open it only on winning an
// election — opening at startup races the peers on segment creation
// and leaves followers with handles that go stale the moment the
// leader appends. On failover the successor's fresh open must see
// everything the previous leader fsynced.
func TestReplicaLazyWALOpenAndHandoff(t *testing.T) {
	dir := t.TempDir()
	var opens atomic.Int32
	backend := store.New()
	lns := make([]net.Listener, 3)
	peers := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	reps := make([]*Replica, 3)
	for i := range reps {
		rep, err := NewReplica(ReplicaConfig{
			Self:        peers[i],
			Peers:       peers,
			Lease:       150 * time.Millisecond,
			Heartbeat:   40 * time.Millisecond,
			Coordinator: Config{P: 1, Backend: backend},
			OpenWAL: func() (*ingest.WAL, error) {
				opens.Add(1)
				return ingest.Open(dir, ingest.Options{})
			},
			Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		d := wire.NewDispatcher()
		rep.RegisterHandlers(d)
		srv := wire.ServeListener(lns[i], d.Handle)
		t.Cleanup(func() { rep.Stop(); srv.Close() })
		reps[i] = rep
	}
	for _, rep := range reps {
		rep.Start()
	}

	leader := waitLeader(t, reps)
	if got := opens.Load(); got != 1 {
		t.Fatalf("%d WAL opens after first election, want 1 (leader only)", got)
	}

	// Durably accept records through the leader's handle. No nodes have
	// joined, so the drain stalls — acceptance must not care.
	enc := slimEncoder()
	recs := corpus(t, enc, 3)
	resp, err := leader.IngestAppend(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 3 {
		t.Fatalf("IngestAppend seq = %d, want 3", resp.Seq)
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
	resp, err = next.IngestAppend(context.Background(), recs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 4 {
		t.Fatalf("successor's append got seq %d, want 4 (old leader's 3 frames recovered)", resp.Seq)
	}
}
