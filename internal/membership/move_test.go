package membership

import (
	"context"
	"errors"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roar/internal/node"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/sim"
	"roar/internal/wire"
)

// gatedNode serves a node's put and retain. Once armed, the next put
// signals blocked and waits for release; while fail is set, every put is
// refused after that wait.
type gatedNode struct {
	nd      *node.Node
	addr    string
	armed   atomic.Bool
	fail    atomic.Bool
	blocked chan struct{}
	release chan struct{}
	free    func() // closes release, once
}

func startGated(t *testing.T, enc *pps.Encoder, n int) []*gatedNode {
	t.Helper()
	gs := make([]*gatedNode, n)
	for i := range gs {
		nd, err := node.New(node.Config{Params: enc.ServerParams()})
		if err != nil {
			t.Fatal(err)
		}
		g := &gatedNode{nd: nd, blocked: make(chan struct{}, 1), release: make(chan struct{})}
		g.free = sync.OnceFunc(func() { close(g.release) })
		d := wire.NewDispatcher()
		d.Register(proto.MNodePut, func(_ context.Context, _ string, body wire.Body) (interface{}, error) {
			var req proto.PutReq
			if err := body.Decode(&req); err != nil {
				return nil, err
			}
			if g.armed.CompareAndSwap(true, false) {
				g.blocked <- struct{}{}
				<-g.release
			}
			if g.fail.Load() {
				return nil, errors.New("put refused")
			}
			return g.nd.Put(req)
		})
		d.Register(proto.MNodeRetain, func(_ context.Context, _ string, body wire.Body) (interface{}, error) {
			var req proto.RetainReq
			if err := body.Decode(&req); err != nil {
				return nil, err
			}
			return g.nd.Retain(req), nil
		})
		srv, err := wire.Serve("127.0.0.1:0", d.Handle)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.free(); srv.Close() })
		g.addr = srv.Addr()
		gs[i] = g
	}
	return gs
}

// gatedCluster is a logged coordinator whose nodes are gated, loaded
// with recs.
type gatedCluster struct {
	c     *Coordinator
	nodes map[ring.NodeID]*gatedNode
	ids   []ring.NodeID // in join order
	recs  []pps.Encoded
}

func startGatedCluster(t *testing.T, cfg Config, n int, recs []pps.Encoded) *gatedCluster {
	t.Helper()
	gc := &gatedCluster{c: newLoggedConfig(t, cfg), nodes: map[ring.NodeID]*gatedNode{}, recs: recs}
	for _, g := range startGated(t, slimEncoder(), n) {
		if _, err := gc.join(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := gc.c.LoadCorpus(context.Background(), gc.recs); err != nil {
		t.Fatal(err)
	}
	return gc
}

func (gc *gatedCluster) join(g *gatedNode) (ring.NodeID, error) {
	j, err := gc.c.Join(context.Background(), g.addr, 1)
	if err != nil {
		return 0, err
	}
	id := ring.NodeID(j.ID)
	gc.nodes[id], gc.ids = g, append(gc.ids, id)
	return id, nil
}

// hold runs move with g armed, calls during while g holds the move's
// push, then lets the push go and returns the move's error.
func hold(t *testing.T, g *gatedNode, move func() error, during func()) error {
	t.Helper()
	g.armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- move() }()
	select {
	case <-g.blocked:
	case err := <-done:
		t.Fatalf("the move returned (%v) without pushing to the node", err)
	case <-time.After(10 * time.Second):
		t.Fatal("the move never pushed to the node")
	}
	during()
	g.free()
	return <-done
}

// predecessor returns a node's predecessor on its ring.
func (gc *gatedCluster) predecessor(t *testing.T, id ring.NodeID) ring.NodeID {
	t.Helper()
	gc.c.mu.Lock()
	defer gc.c.mu.Unlock()
	pred, err := gc.c.rings[gc.c.ringOf(id)].Predecessor(id)
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// checkHolders fails unless every node of the published layout stores
// every corpus record its stored spans hold.
func (gc *gatedCluster) checkHolders(t *testing.T) {
	t.Helper()
	missing := 0
	for id, spans := range heldSpans(gc.c) {
		for _, rec := range gc.recs {
			if _, ok := gc.nodes[id].nd.Store().Get(rec.ID); inSpans(spans, rec.ID) && !ok {
				missing++
			}
		}
	}
	if missing > 0 {
		t.Errorf("%d holder copies of the corpus missing after the move", missing)
	}
}

// sameView reports whether two views publish the same layout: epoch, p,
// and each node's ring, start and address.
func sameView(a, b proto.View) bool {
	return a.Epoch == b.Epoch && a.P == b.P && slices.Equal(a.Nodes, b.Nodes)
}

// TestViewWaitsForPush: no published view names a range its node does
// not yet hold. For each kind of move, the node the move pushes to holds
// its push; meanwhile View() is the view from before the move (same
// epoch, p, nodes and starts). Once the push lands the move publishes,
// and every holder of the new view stores its records. The corpus's
// evenly spaced ids put records on the ring points where ranges meet.
func TestViewWaitsForPush(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		cfg  Config
		// setup returns the gated node the move pushes to and the move.
		setup func(t *testing.T, gc *gatedCluster) (*gatedNode, func() error)
	}{
		{"Join", Config{P: 2}, func(t *testing.T, gc *gatedCluster) (*gatedNode, func() error) {
			g := startGated(t, slimEncoder(), 1)[0]
			return g, func() error {
				_, err := gc.join(g)
				return err
			}
		}},
		{"Leave", Config{P: 2}, func(t *testing.T, gc *gatedCluster) (*gatedNode, func() error) {
			gone := gc.ids[1]
			return gc.nodes[gc.predecessor(t, gone)], func() error { return gc.c.Leave(ctx, gone) }
		}},
		{"BalanceStep", Config{P: 2}, func(t *testing.T, gc *gatedCluster) (*gatedNode, func() error) {
			hot := gc.ids[1]
			loads := map[ring.NodeID]float64{}
			for _, id := range gc.ids {
				loads[id] = 1
			}
			loads[hot] = 10
			return gc.nodes[gc.predecessor(t, hot)], func() error {
				moves, err := gc.c.BalanceStep(ctx, loads, 0.3)
				if err == nil && moves != 1 {
					t.Errorf("BalanceStep made %d moves, want 1", moves)
				}
				return err
			}
		}},
		{"SetRingEnabled", Config{P: 2, Rings: 2}, func(t *testing.T, gc *gatedCluster) (*gatedNode, func() error) {
			// The corpus is written again, under fresh ids, while ring 1
			// is off.
			if err := gc.c.SetRingEnabled(ctx, 1, false); err != nil {
				t.Fatal(err)
			}
			for i := range gc.recs {
				gc.recs[i].ID ^= 1 << 62
			}
			if err := gc.c.LoadCorpus(ctx, gc.recs); err != nil {
				t.Fatal(err)
			}
			gc.c.mu.Lock()
			back := gc.c.rings[1].IDs()[0]
			gc.c.mu.Unlock()
			return gc.nodes[back], func() error { return gc.c.SetRingEnabled(ctx, 1, true) }
		}},
		{"ChangePDown", Config{P: 4}, func(t *testing.T, gc *gatedCluster) (*gatedNode, func() error) {
			return gc.nodes[gc.ids[2]], func() error { return gc.c.ChangeP(ctx, 2) }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gc := startGatedCluster(t, tc.cfg, 4, corpus(t, slimEncoder(), 200))
			g, move := tc.setup(t, gc)
			before := gc.c.View()
			var during proto.View
			if err := hold(t, g, move, func() { during = gc.c.View() }); err != nil {
				t.Fatal(err)
			}
			if !sameView(during, before) {
				t.Errorf("while the push was held the view moved:\nbefore %+v\nduring %+v", before, during)
			}
			if after := gc.c.View(); after.Epoch <= before.Epoch {
				t.Errorf("the move published epoch %d, want past %d", after.Epoch, before.Epoch)
			}
			gc.checkHolders(t)
		})
	}
}

// TestMovePushCounts: each move pushes only what its nodes gain. On 8
// nodes at p = 4 with 2 000 records a Join pushes the new node's stored
// set (1/8 + 1/4 of the ring), a p decrease to 2 pushes every node a
// quarter of the ring (sim.ReconfigurationCost's 2 copies a record), the
// p increase back pushes nothing, and a Leave pushes only the absorbed
// arc (1/8). The records sit mid-way between ring points k/4000, so none
// is on a point where ranges meet and each arc's count is exact.
func TestMovePushCounts(t *testing.T) {
	const records = 2000
	recs := make([]pps.Encoded, records)
	for i := range recs {
		recs[i] = pps.Encoded{ID: uint64(2*i+1) * (math.MaxUint64 / (2 * records)), BloomMetadata: pps.BloomMetadata{
			Nonce: make([]byte, 16), Filter: make([]byte, 32),
		}}
	}
	gc := startGatedCluster(t, Config{P: 4}, 7, recs)
	c, ctx := gc.c, context.Background()
	roarFrac, _, err := sim.ReconfigurationCost(8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	extra := startGated(t, slimEncoder(), 1)[0]
	steps := []struct {
		name string
		run  func() error
		want int64
	}{
		{"Join", func() error {
			_, err := gc.join(extra)
			return err
		}, 750},
		{"ChangeP 4->2", func() error { return c.ChangeP(ctx, 2) }, int64(roarFrac * records)},
		{"ChangeP 2->4", func() error { return c.ChangeP(ctx, 4) }, 0},
		{"Leave", func() error { return c.Leave(ctx, gc.ids[3]) }, 250},
	}
	for _, s := range steps {
		before := c.ObjectsPushed()
		if err := s.run(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got := c.ObjectsPushed() - before; got != s.want {
			t.Errorf("%s pushed %d records, want %d", s.name, got, s.want)
		}
	}
	gc.checkHolders(t)
}

// TestFailedJoinLeavesNoTrace: a Join whose push fails publishes
// nothing. The view never names the node, the coordinator forgets it and
// closes its client, and a retry from the same address joins cleanly.
func TestFailedJoinLeavesNoTrace(t *testing.T) {
	gc := startGatedCluster(t, Config{P: 2}, 3, corpus(t, slimEncoder(), 100))
	c, ctx := gc.c, context.Background()
	g := startGated(t, slimEncoder(), 1)[0]
	g.fail.Store(true)
	before := c.View()
	var (
		id     ring.NodeID
		cl     *wire.Client
		during proto.View
	)
	join := func() error {
		_, err := c.Join(ctx, g.addr, 1)
		return err
	}
	if err := hold(t, g, join, func() {
		c.mu.Lock()
		id = c.nextID - 1
		cl = c.clients[id]
		c.mu.Unlock()
		during = c.View()
	}); err == nil {
		t.Fatal("a Join whose push fails succeeded")
	}
	for _, v := range []proto.View{during, c.View()} {
		if !sameView(v, before) {
			t.Errorf("a failed Join moved the view:\nbefore %+v\nthen   %+v", before, v)
		}
	}
	c.mu.Lock()
	_, known := c.addrs[id]
	_, hasClient := c.clients[id]
	c.mu.Unlock()
	if known || hasClient {
		t.Errorf("the coordinator still knows the failed node %d (address %v, client %v)", id, known, hasClient)
	}
	if cl == nil {
		t.Fatal("the joining node had no client during its push")
	}
	if err := cl.Call(ctx, proto.MNodeRetain, proto.RetainReq{P: 2}, nil); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("the failed node's client still calls: %v", err)
	}

	g.fail.Store(false)
	retry, err := gc.join(g)
	if err != nil {
		t.Fatal(err)
	}
	named := 0
	for _, n := range c.View().Nodes {
		if n.Addr == g.addr {
			named++
			if ring.NodeID(n.ID) != retry {
				t.Errorf("the view names %s as node %d, want %d", g.addr, n.ID, retry)
			}
		}
	}
	if named != 1 {
		t.Errorf("the view names the retried address %d times, want 1", named)
	}
	gc.checkHolders(t)
}

// balancedReplicas runs a BalanceStep that moves one start on a
// replicated coordinator over four stand-in nodes, and returns the
// replicas, the leader and the view after the step.
func balancedReplicas(t *testing.T) ([]*Replica, *Replica, proto.View) {
	t.Helper()
	addrs, _ := fakeNodes(t, 4)
	reps, _ := startReplicas(t, 3, ReplicaConfig{Coordinator: Config{P: 2}})
	leader := waitLeader(t, reps)
	c := leaderCoord(t, leader)
	ctx := context.Background()
	loads := map[ring.NodeID]float64{}
	var last ring.NodeID
	for _, a := range addrs {
		j, err := c.Join(ctx, a, 1)
		if err != nil {
			t.Fatal(err)
		}
		last = ring.NodeID(j.ID)
		loads[last] = 1
	}
	loads[last] = 10 // its predecessor grows into it
	before := c.View()
	moves, err := c.BalanceStep(ctx, loads, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	v := c.View()
	if moves == 0 || sameView(v, before) {
		t.Fatalf("BalanceStep made %d moves and left the view at %+v", moves, v)
	}
	return reps, leader, v
}

// viewStarts maps each node of a view to its start.
func viewStarts(v proto.View) map[int]float64 {
	out := map[int]float64{}
	for _, n := range v.Nodes {
		out[n.ID] = n.Start
	}
	return out
}

// TestReplicaCommitsBalanceStep: a BalanceStep commits once its trim is
// done, so the committed state carries the epoch and starts it
// published.
func TestReplicaCommitsBalanceStep(t *testing.T) {
	_, leader, v := balancedReplicas(t)
	st, ok := leader.CommittedState()
	if !ok || st.Epoch != v.Epoch {
		t.Fatalf("committed epoch %d (ok %v), want the view's %d", st.Epoch, ok, v.Epoch)
	}
	committed := map[int]float64{}
	for _, n := range st.Nodes {
		committed[n.ID] = n.Start
	}
	if want := viewStarts(v); !maps.Equal(committed, want) {
		t.Errorf("committed starts %v, want the view's %v", committed, want)
	}
}

// TestReplicaSuccessorPublishesBalance: the leader that ran a
// BalanceStep dies; its successor publishes the balanced ranges.
func TestReplicaSuccessorPublishesBalance(t *testing.T) {
	reps, leader, v := balancedReplicas(t)
	leader.Stop()
	var rest []*Replica
	for _, r := range reps {
		if r != leader {
			rest = append(rest, r)
		}
	}
	nv := leaderCoord(t, waitLeader(t, rest)).View()
	if got, want := viewStarts(nv), viewStarts(v); !maps.Equal(got, want) {
		t.Errorf("the successor publishes starts %v, want the balanced %v", got, want)
	}
}
