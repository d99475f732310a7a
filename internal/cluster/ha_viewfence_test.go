package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"roar/internal/frontend"
)

// TestClusterChaosTermZeroViewFence pins the view fence across the
// standalone/replicated boundary, on views a real elected leader
// published: (Term, Epoch) must order a standalone coordinator's Term-0
// views and an elected leader's Term > 0 views correctly in both
// directions.
func TestClusterChaosTermZeroViewFence(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated-control-plane e2e is not short")
	}
	hc, err := StartHA(HAOptions{
		Replicas: 3, Nodes: 2, P: 2, Seed: 7,
		Lease:     250 * time.Millisecond,
		Heartbeat: 60 * time.Millisecond,
		Frontend:  frontend.Config{Name: "fe", PQ: 2},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	want, q := haCorpus(t, hc)

	leader, err := hc.WaitLeader(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := hc.Syncer.PullViewOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	elected := hc.FE.View()
	if elected.Term == 0 || elected.Term != leader.Term() {
		t.Fatalf("frontend installed term %d, leader at %d", elected.Term, leader.Term())
	}

	// Downgrade direction: once a frontend has installed an elected
	// leader's view, a standalone coordinator's Term-0 view of the same
	// cluster must be rejected — a standalone process started by
	// accident cannot roll the fleet back.
	standalone := elected
	standalone.Term = 0
	if err := hc.FE.ApplyView(standalone); !errors.Is(err, frontend.ErrStaleView) {
		t.Fatalf("Term-0 view accepted over an elected one: %v", err)
	}

	// Fence, upgrade direction: a frontend still holding a Term-0 view
	// (booted against a standalone coordinator) accepts its first
	// elected view even if the epoch restarted lower.
	upFE := frontend.New(frontend.Config{Name: "fe-upgrading", PQ: 2})
	defer upFE.Close()
	pre := elected
	pre.Term = 0
	pre.Epoch = pre.Epoch + 100 // standalone epochs share no origin
	if err := upFE.ApplyView(pre); err != nil {
		t.Fatal(err)
	}
	if err := upFE.ApplyView(elected); err != nil {
		t.Fatalf("upgrade to first elected view refused: %v", err)
	}
	if upFE.View().Term != elected.Term {
		t.Fatalf("upgrading frontend kept term %d", upFE.View().Term)
	}
	res, err := upFE.Query(context.Background(), frontend.QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	checkIDSet(t, res, want, "upgraded frontend")
}
