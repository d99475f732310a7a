package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roar/internal/frontend"
)

// TestClusterChaosLeaderFailover is the control-plane kill test: the
// lease holder dies at the worst possible instant — after a ChangeP
// intent commits but before any data moves — while 32 concurrent
// clients hammer the frontend. A follower must take over within the
// lease timeout, finish the inherited reconfiguration, and every query
// before, during, and after the takeover must return the exact id set
// of an undisturbed run. The deposed leader's last view must be
// rejected by the frontend's (Term, Epoch) fence.
func TestClusterChaosLeaderFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is not short")
	}
	const (
		nodes   = 8
		p       = 4
		pTarget = 2 // p-down only ADDS records to nodes: correct mid-move
		clients = 32
	)

	// Crash-point hook: the first intent commit anywhere in the replica
	// set signals the test and freezes that leader pre-execution; the
	// new leader's re-driven pass sails through.
	var intentOnce sync.Once
	intentHit := make(chan struct{})
	release := make(chan struct{})
	hook := func(int) {
		fired := false
		intentOnce.Do(func() { fired = true })
		if fired {
			close(intentHit)
			<-release
		}
	}

	hc, err := Start(Options{
		Replicas: 3, Nodes: nodes, P: p, Seed: 23,
		Lease:     250 * time.Millisecond,
		Heartbeat: 60 * time.Millisecond,
		Frontend: frontend.Config{
			Name:            "fe-ha",
			PQ:              nodes,
			SubQueryTimeout: 250 * time.Millisecond,
		},
		OnIntentCommitted: hook,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	want, q := chaosCorpus(t, hc)

	// Undisturbed baseline: the reference id set the chaos run must match.
	res, err := hc.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	checkIDSet(t, res, want, "undisturbed baseline")

	// 32 concurrent clients assert id-set identity for the whole run.
	var queries atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				res, err := hc.FE.Query(ctx, frontend.QuerySpec{Enc: q})
				cancel()
				if err != nil {
					t.Errorf("client %d: query failed mid-chaos: %v", id, err)
					return
				}
				if len(res.IDs) != len(want) {
					t.Errorf("client %d: got %d ids, want %d", id, len(res.IDs), len(want))
					return
				}
				for _, rid := range res.IDs {
					if !want[rid] {
						t.Errorf("client %d: unexpected id %d", id, rid)
						return
					}
				}
				queries.Add(1)
			}
		}(i)
	}

	leader, err := hc.WaitLeader(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	oldTerm := leader.Term()
	leaderCoord, err := leader.LeaderCoord()
	if err != nil {
		t.Fatal(err)
	}
	staleView := leaderCoord.View()
	leaderIdx := hc.ReplicaIndex(leader)

	// Kick off the reconfiguration; it will freeze at the crash point.
	changeErr := make(chan error, 1)
	go func() { changeErr <- leaderCoord.ChangeP(context.Background(), pTarget) }()
	select {
	case <-intentHit:
	case <-time.After(10 * time.Second):
		t.Fatal("ChangeP intent never committed")
	}

	// Kill the lease holder mid-ChangeP: intent durable, work not done.
	killedAt := time.Now()
	hc.KillReplica(leaderIdx)
	close(release)
	if err := <-changeErr; err == nil {
		t.Error("ChangeP on the killed leader reported success")
	} else {
		t.Logf("killed leader's ChangeP surfaced: %v", err)
	}

	next, err := hc.WaitLeader(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("failover took %v (lease 250ms)", time.Since(killedAt))
	if next == leader {
		t.Fatal("killed leader still leads")
	}
	if nt := next.Term(); nt <= oldTerm {
		t.Fatalf("new leader term %d does not supersede %d", nt, oldTerm)
	}

	// The successor must finish the inherited ChangeP on its own.
	deadline := time.Now().Add(10 * time.Second)
	for {
		nc, verr := next.LeaderCoord()
		st, ok := next.CommittedState()
		if verr == nil && ok && nc.View().P == pTarget && st.PendingP == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("inherited ChangeP never completed: p=%d err=%v pending=%d",
				next.P(), verr, st.PendingP)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The frontend fails over to the new leader through coordclient and
	// installs the post-reconfiguration view...
	if err := hc.SyncView(); err != nil {
		t.Fatal(err)
	}
	fv := hc.FE.View()
	if fv.P != pTarget {
		t.Fatalf("frontend view p=%d after failover, want %d", fv.P, pTarget)
	}
	if fv.Term <= oldTerm {
		t.Fatalf("frontend view term %d does not supersede %d", fv.Term, oldTerm)
	}
	// ...and the deposed leader's pre-kill view is fenced out.
	if err := hc.FE.ApplyView(staleView); !errors.Is(err, frontend.ErrStaleView) {
		t.Fatalf("stale view from term %d accepted after takeover: %v", staleView.Term, err)
	}

	// Let the clients observe the post-failover world before stopping.
	pre := queries.Load()
	settle := time.Now().Add(5 * time.Second)
	for queries.Load() < pre+clients && time.Now().Before(settle) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if n := queries.Load(); n < clients {
		t.Fatalf("only %d queries completed across the chaos run", n)
	} else {
		t.Logf("%d id-set-identical queries across kill and takeover", n)
	}

	res, err = hc.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
	if err != nil {
		t.Fatal(err)
	}
	checkIDSet(t, res, want, "after failover at p=2")
}
