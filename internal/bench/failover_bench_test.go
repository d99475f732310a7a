package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roar/internal/cluster"
	"roar/internal/frontend"
	"roar/internal/pps"
)

// Control-plane failover benchmark: kill the lease holder under query
// load and report (a) milliseconds until a follower leads and (b) how
// many data-plane queries the outage shed. The second number is the
// headline robustness claim as a gate-tracked metric — queries flow
// frontend→nodes and never touch the coordinator, so a control-plane
// death must shed exactly zero of them (the baseline pins 0, and like
// the kernel's allocs/op, any growth fails the gate).

const (
	failoverNodes   = 4
	failoverP       = 2
	failoverCorpus  = 80
	failoverClients = 16
)

// failoverRun measures one leader kill, returning the time from kill to
// elected successor and the count of failed queries across the run.
func failoverRun() (time.Duration, int64, error) {
	hc, err := cluster.StartHA(cluster.HAOptions{
		Replicas: 3, Nodes: failoverNodes, P: failoverP, Seed: 5,
		Lease:     200 * time.Millisecond,
		Heartbeat: 50 * time.Millisecond,
		Frontend:  frontend.Config{PQ: failoverNodes, PoolSize: 2},
	})
	if err != nil {
		return 0, 0, err
	}
	defer hc.Close()
	recs := make([]pps.Encoded, failoverCorpus)
	for i := range recs {
		if recs[i], err = hc.Enc.EncryptDocument(pps.Document{
			ID: uint64(i + 1), Path: fmt.Sprintf("/b/%d", i), Size: int64(i),
			Modified: time.Unix(1.2e9, 0), Keywords: []string{"hot"},
		}); err != nil {
			return 0, 0, err
		}
	}
	if err := hc.LoadEncoded(recs); err != nil {
		return 0, 0, err
	}
	q, err := hc.Enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "hot"})
	if err != nil {
		return 0, 0, err
	}
	if _, err := hc.FE.Query(context.Background(), frontend.QuerySpec{Enc: q}); err != nil {
		return 0, 0, err
	}

	var shed, done atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < failoverClients; w++ {
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
				_, err := hc.FE.Query(ctx, frontend.QuerySpec{Enc: q})
				cancel()
				if err != nil {
					shed.Add(1)
				} else {
					done.Add(1)
				}
			}
		}()
	}

	leader, err := hc.WaitLeader(10 * time.Second)
	if err != nil {
		close(stop)
		wg.Wait()
		return 0, 0, err
	}
	killedAt := time.Now()
	hc.KillReplica(hc.ReplicaIndex(leader))
	if _, err := hc.WaitLeader(10 * time.Second); err != nil {
		close(stop)
		wg.Wait()
		return 0, 0, err
	}
	toLeader := time.Since(killedAt)

	// Let load run past the takeover so sheds during the leaderless
	// window (there must be none) are inside the measured span.
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if done.Load() == 0 {
		return 0, 0, fmt.Errorf("bench: no queries completed during failover run")
	}
	return toLeader, shed.Load(), nil
}

// BenchmarkFailover reports mean time-to-new-leader and total queries
// shed across leader kills. CI runs -benchtime 1x; the three inner
// kills per iteration damp election-jitter variance (a split vote costs
// a full extra round) without rebuilding more clusters than needed.
func BenchmarkFailover(b *testing.B) {
	const kills = 3
	var ms float64
	var shed int64
	for i := 0; i < b.N; i++ {
		for k := 0; k < kills; k++ {
			d, s, err := failoverRun()
			if err != nil {
				b.Fatal(err)
			}
			ms += float64(d.Milliseconds())
			shed += s
		}
	}
	b.ReportMetric(ms/float64(b.N*kills), "ms-to-leader")
	b.ReportMetric(float64(shed)/float64(b.N*kills), "queries-shed")
}

// TestFailoverShedsNothing is the correctness side at test scale: a
// control-plane kill must not fail a single data-plane query.
func TestFailoverShedsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("failover e2e is not short")
	}
	d, shed, err := failoverRun()
	if err != nil {
		t.Fatal(err)
	}
	if shed != 0 {
		t.Fatalf("control-plane failover shed %d data-plane queries", shed)
	}
	t.Logf("failover took %v, 0 queries shed", d)
}
