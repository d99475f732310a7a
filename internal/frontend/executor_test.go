package frontend

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"roar/internal/node"
	"roar/internal/pps"
	"roar/internal/proto"
)

// testViewCost is testView with a fixed per-sub-query node cost, for
// exercising the admission queue deterministically.
func testViewCost(t *testing.T, enc *pps.Encoder, n, p int, cost time.Duration) (proto.View, []*node.Node) {
	t.Helper()
	v := proto.View{Epoch: 1, P: p}
	var nodes []*node.Node
	for i := 0; i < n; i++ {
		nd, err := node.New(node.Config{Params: enc.ServerParams(), FixedQueryCost: cost})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := nd.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		nodes = append(nodes, nd)
		v.Nodes = append(v.Nodes, proto.NodeInfo{
			ID: i, Ring: 0, Start: float64(i) / float64(n), Addr: srv.Addr(),
		})
	}
	return v, nodes
}

func TestAdmissionControlQueues(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testViewCost(t, enc, 2, 1, 40*time.Millisecond)
	loadAll(t, nodes, enc, []string{"aa"})
	fe := New(Config{MaxInFlight: 1})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	const clients = 4
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		queued int
	)
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := fe.Query(context.Background(), QuerySpec{Enc: q})
			if err != nil {
				t.Error(err)
				return
			}
			if len(res.IDs) != 1 {
				t.Errorf("got %d ids, want 1", len(res.IDs))
			}
			mu.Lock()
			if res.Queue > 0 {
				queued++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	// One at a time: total wall time is at least clients × fixed cost.
	if d := time.Since(start); d < clients*40*time.Millisecond {
		t.Errorf("serial admission finished in %v, faster than %d serialised queries", d, clients)
	}
	if queued == 0 {
		t.Error("no query reported admission queueing")
	}
}

func TestQueueTimeoutOverload(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testViewCost(t, enc, 2, 1, 300*time.Millisecond)
	loadAll(t, nodes, enc, []string{"aa"})
	fe := New(Config{MaxInFlight: 1, QueueTimeout: 20 * time.Millisecond})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	first := make(chan error, 1)
	go func() {
		_, err := fe.Query(context.Background(), QuerySpec{Enc: q})
		first <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the first query occupy the slot
	_, err := fe.Query(context.Background(), QuerySpec{Enc: q})
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("queued query got %v, want ErrOverloaded", err)
	}
	if err := <-first; err != nil {
		t.Fatalf("first query failed: %v", err)
	}
}

func TestAdmissionHonoursContext(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testViewCost(t, enc, 2, 1, 300*time.Millisecond)
	loadAll(t, nodes, enc, []string{"aa"})
	fe := New(Config{MaxInFlight: 1})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	first := make(chan error, 1)
	go func() {
		_, err := fe.Query(context.Background(), QuerySpec{Enc: q})
		first <- err
	}()
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := fe.Query(ctx, QuerySpec{Enc: q}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("queued query got %v, want context deadline", err)
	}
	if err := <-first; err != nil {
		t.Fatalf("first query failed: %v", err)
	}
}
