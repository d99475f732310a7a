// Control-plane failover walkthrough: the membership coordinator — the
// one process every other ROAR component leans on — runs as a
// three-replica set with leader leases and a log-replicated view, and
// this example kills the leader at the worst possible moment to show
// what the replication buys:
//
//  1. three replicas elect a lease holder; nodes join and a frontend
//     keeps its view current through the failover client, never caring
//     which replica answers;
//  2. a repartitioning (ChangeP 4→2) starts, and the leader is killed
//     right after the intent commits — before any data moves;
//  3. a follower takes over within the lease timeout, finds the durable
//     intent in its inherited state, and finishes the reconfiguration
//     on its own;
//  4. queries flow uninterrupted the whole time (the data plane never
//     touches the coordinator), and the deposed leader's final view is
//     rejected by the frontend's (Term, Epoch) fence.
//
// The same topology runs as real processes with:
//
//	roar-member -listen :7001 -peers :7001,:7002,:7003 -wal /shared/wal ...
//	roar-frontend -member :7001,:7002,:7003 ...
//
// See docs/HA.md for the protocol.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"roar/internal/cluster"
	"roar/internal/frontend"
	"roar/internal/pps"
)

func main() {
	const (
		nodes   = 8
		p       = 4
		pTarget = 2
		workers = 8
	)

	// The crash-point hook: freeze the leader the instant the ChangeP
	// intent is durable, so the kill below lands mid-reconfiguration.
	var once sync.Once
	intentHit := make(chan struct{})
	release := make(chan struct{})
	hc, err := cluster.Start(cluster.Options{
		Replicas: 3, Nodes: nodes, P: p, Seed: 42,
		Lease:     300 * time.Millisecond,
		Heartbeat: 75 * time.Millisecond,
		Frontend:  frontend.Config{Name: "fe-0", PQ: nodes},
		OnIntentCommitted: func(int) {
			fired := false
			once.Do(func() { fired = true })
			if fired {
				close(intentHit)
				<-release
			}
		},
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer hc.Close()

	// A small corpus where every document matches the demo query.
	recs := make([]pps.Encoded, 120)
	for i := range recs {
		recs[i], err = hc.Enc.EncryptDocument(pps.Document{
			ID: uint64(i + 1), Path: fmt.Sprintf("/corpus/%d", i), Size: int64(i),
			Modified: time.Unix(1.2e9, 0), Keywords: []string{"report"},
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := hc.LoadEncoded(recs); err != nil {
		log.Fatal(err)
	}
	q, err := hc.Enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "report"})
	if err != nil {
		log.Fatal(err)
	}

	leader, err := hc.WaitLeader(10 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== leader elected: %s (term %d)\n", leader.Self(), leader.Term())
	leaderCoord, err := leader.LeaderCoord()
	if err != nil {
		log.Fatal(err)
	}
	staleView := leaderCoord.View()

	// Query load that never stops across the kill.
	var ok, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
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
				if err != nil || len(res.IDs) != len(recs) {
					failed.Add(1)
				} else {
					ok.Add(1)
				}
			}
		}()
	}

	fmt.Printf("== starting ChangeP %d→%d and killing the leader mid-way\n", p, pTarget)
	go func() {
		if err := leaderCoord.ChangeP(context.Background(), pTarget); err != nil {
			log.Printf("killed leader's ChangeP (expected to fail): %v", err)
		}
	}()
	<-intentHit
	killedAt := time.Now()
	hc.KillReplica(hc.ReplicaIndex(leader))
	close(release)
	fmt.Println("== leader killed: intent committed, no data moved")

	next, err := hc.WaitLeader(10 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== %s took over in %v (term %d)\n",
		next.Self(), time.Since(killedAt).Round(time.Millisecond), next.Term())

	// The successor finishes the inherited reconfiguration on its own.
	for {
		nc, verr := next.LeaderCoord()
		st, okSt := next.CommittedState()
		if verr == nil && okSt && nc.View().P == pTarget && st.PendingP == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("== inherited ChangeP finished: cluster at p=%d\n", pTarget)

	// The frontend fails over and installs the new view; the deposed
	// leader's last view is fenced out.
	if err := hc.SyncView(); err != nil {
		log.Fatal(err)
	}
	if err := hc.FE.ApplyView(staleView); errors.Is(err, frontend.ErrStaleView) {
		fmt.Printf("== deposed leader's view (term %d) rejected: %v\n", staleView.Term, err)
	} else {
		log.Fatalf("stale view was not fenced: %v", err)
	}

	close(stop)
	wg.Wait()
	fmt.Printf("== %d queries served across the failover, %d failed\n", ok.Load(), failed.Load())
}
