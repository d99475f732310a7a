package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roar/internal/frontend"
	"roar/internal/pps"
)

// TestConcurrentExecuteWithNodeFailure is the race-focused end-to-end
// test of the execution pipeline: 32 concurrent clients drive a real
// TCP cluster through the pooled, admission-controlled frontend while a
// node is killed mid-flight. Every query must return the complete
// result set (replicas make the killed node's arc recoverable, §4.4)
// with no duplicate ids (incremental merge dedup), and the frontend
// must record the failure.
func TestConcurrentExecuteWithNodeFailure(t *testing.T) {
	const (
		nodes   = 9
		p       = 3 // r = 3 replicas: one failure cannot lose data
		clients = 32
	)
	c, err := Start(Options{
		Nodes: nodes, P: p, Seed: 5,
		Frontend: frontend.Config{
			SubQueryTimeout: 400 * time.Millisecond,
			PoolSize:        2,
			MaxInFlight:     16,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A small corpus with a known answer: 40 of 120 documents carry the
	// target keyword.
	want := map[uint64]bool{}
	var recs []pps.Encoded
	for i := 0; i < 120; i++ {
		kw := "filler"
		if i%3 == 0 {
			kw = "target"
		}
		id := uint64(i+1) << 32
		rec, err := c.Enc.EncryptDocument(pps.Document{
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
	if err := c.LoadEncoded(recs); err != nil {
		t.Fatal(err)
	}
	q, err := c.Enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "target"})
	if err != nil {
		t.Fatal(err)
	}

	check := func(res frontend.Result) error {
		for i := 1; i < len(res.IDs); i++ {
			if res.IDs[i] <= res.IDs[i-1] {
				return fmt.Errorf("ids not strictly increasing at %d: %v", i, res.IDs[i])
			}
		}
		got := map[uint64]bool{}
		for _, id := range res.IDs {
			got[id] = true
		}
		for id := range want {
			if !got[id] {
				return fmt.Errorf("missing id %d (%d/%d returned)", id, len(res.IDs), len(want))
			}
		}
		return nil
	}

	var (
		wg         sync.WaitGroup
		sawFailure atomic.Bool
		queries    atomic.Int64
		afterKill  atomic.Int64
		killedAt   = make(chan struct{})
		deadline   = time.Now().Add(1500 * time.Millisecond)
		errCh      = make(chan error, clients)
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				res, err := c.FE.Query(context.Background(), frontend.QuerySpec{Enc: q})
				if err != nil {
					errCh <- fmt.Errorf("execute: %w", err)
					return
				}
				if err := check(res); err != nil {
					errCh <- err
					return
				}
				if res.Failures > 0 {
					sawFailure.Store(true)
				}
				queries.Add(1)
				select {
				case <-killedAt:
					afterKill.Add(1)
				default:
				}
			}
		}()
	}
	// Kill a node while the 32 clients are in full flight: the busiest
	// one, because at p < n the scheduler can settle on a subset of the
	// nodes and a victim it never uses would fail no query.
	time.Sleep(150 * time.Millisecond)
	killIdx, most := 0, int64(-1)
	for i, n := range c.Nodes() {
		if served := n.Stats().Queries; served > most {
			killIdx, most = i, served
		}
	}
	if err := c.KillNode(killIdx); err != nil {
		t.Fatal(err)
	}
	close(killedAt)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	if !sawFailure.Load() {
		t.Error("no query ever observed the failure/fallback path")
	}
	if got := failedNodes(c.FE); len(got) == 0 {
		t.Error("frontend never recorded the killed node")
	} else if killed := int(c.ids[killIdx]); got[0] != killed {
		t.Errorf("failed nodes = %v, want [%d]", got, killed)
	}
	if afterKill.Load() == 0 {
		t.Error("no query completed after the kill; failure window not exercised")
	}
	t.Logf("%d queries (%d after kill) stayed complete and duplicate-free across a mid-flight node failure",
		queries.Load(), afterKill.Load())

	// The surviving nodes must have overlapped work: with 32 concurrent
	// clients the per-node peak concurrency cannot be 1 everywhere.
	var peak int64
	for i, n := range c.Nodes() {
		if i == killIdx {
			continue
		}
		if s := n.Stats(); s.PeakConcurrency > peak {
			peak = s.PeakConcurrency
		}
	}
	if peak < 2 {
		t.Errorf("peak node concurrency = %d; pipeline never overlapped sub-queries", peak)
	}
}
