package membership

import (
	"context"
	"encoding/json"
	"math"
	"sort"
	"testing"
	"time"

	"roar/internal/ingest"
	"roar/internal/node"
	"roar/internal/pps"
	"roar/internal/ring"
)

func slimEncoder() *pps.Encoder {
	return pps.NewEncoder(pps.TestKey(1), pps.EncoderConfig{
		MaxKeywords: 2, MaxPathDir: 1,
		SizePoints: pps.LinearPoints(0, 100, 2), DateDays: 365, DateSpan: 2,
		RankBuckets: []int{1},
	})
}

func startNodes(t *testing.T, enc *pps.Encoder, n int) ([]*node.Node, []string) {
	t.Helper()
	var nodes []*node.Node
	var addrs []string
	for i := 0; i < n; i++ {
		nd, err := node.New(node.Config{Params: enc.ServerParams()})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := nd.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		nodes = append(nodes, nd)
		addrs = append(addrs, srv.Addr())
	}
	return nodes, addrs
}

func corpus(t *testing.T, enc *pps.Encoder, n int) []pps.Encoded {
	t.Helper()
	recs := make([]pps.Encoded, n)
	for i := range recs {
		r, err := enc.EncryptDocument(pps.Document{
			ID: uint64(i)*(^uint64(0)/uint64(n)) + 7, Path: "/x", Size: 5,
			Modified: time.Unix(1.2e9, 0), Keywords: []string{"w"},
		})
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = r
	}
	return recs
}

// newLogged builds a standalone coordinator over a fresh log with its
// drain running, as roar-member builds one: LoadCorpus appends to the
// log and returns once the drain has delivered it.
func newLogged(t *testing.T, p int) *Coordinator {
	t.Helper()
	return newLoggedConfig(t, Config{P: p})
}

// newLoggedConfig is newLogged for any configuration but the log.
func newLoggedConfig(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	wal, err := ingest.Open(t.TempDir(), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.WAL = wal
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.StartIngest(IngestConfig{})
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing P should be rejected")
	}
}

func TestJoinSplitsHottestRange(t *testing.T) {
	c, err := New(Config{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	enc := slimEncoder()
	_, addrs := startNodes(t, enc, 3)
	// First node owns everything.
	j0, err := c.Join(context.Background(), addrs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if j0.ID != 0 {
		t.Errorf("first id = %d", j0.ID)
	}
	// Second node splits the full ring: starts at 0.5.
	j1, err := c.Join(context.Background(), addrs[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if j1.Start != 0.5 {
		t.Errorf("second node starts at %v, want 0.5 (hotspot midpoint)", j1.Start)
	}
	// A faster third node: the hottest spot is a range per unit speed;
	// both current nodes tie, the split lands mid-range of one of them.
	j2, err := c.Join(context.Background(), addrs[2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Start != 0.25 && j2.Start != 0.75 {
		t.Errorf("third node starts at %v, want a range midpoint", j2.Start)
	}
	v := c.View()
	if len(v.Nodes) != 3 || v.P != 2 {
		t.Errorf("view = %+v", v)
	}
}

func TestLoadCorpusDistributesStoredSets(t *testing.T) {
	c := newLogged(t, 2)
	enc := slimEncoder()
	nodes, addrs := startNodes(t, enc, 4)
	for _, a := range addrs {
		if _, err := c.Join(context.Background(), a, 1); err != nil {
			t.Fatal(err)
		}
	}
	recs := corpus(t, enc, 200)
	if err := c.LoadCorpus(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	// p=2 on 4 nodes: each node stores its range (1/4) + 1/p (1/2) =
	// 3/4 of objects.
	for i, nd := range nodes {
		got := nd.Store().Len()
		if got < 120 || got > 180 {
			t.Errorf("node %d stores %d records, want ~150", i, got)
		}
	}
}

// TestJoinPushesWholeRing: at p = 1 every node stores the whole ring, so
// a joining node is pushed every record, those near ring point 0.5
// (2^63 and just below it) included.
func TestJoinPushesWholeRing(t *testing.T) {
	c := newLogged(t, 1)
	enc := slimEncoder()
	nodes, addrs := startNodes(t, enc, 2)
	ctx := context.Background()
	if _, err := c.Join(ctx, addrs[0], 1); err != nil {
		t.Fatal(err)
	}
	ids := []uint64{1 << 63, 1<<63 - 4096, 12345}
	var recs []pps.Encoded
	for _, id := range ids {
		r, err := enc.EncryptDocument(pps.Document{
			ID: id, Path: "/x", Size: 5, Modified: time.Unix(1.2e9, 0), Keywords: []string{"w"},
		})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if err := c.LoadCorpus(ctx, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(ctx, addrs[1], 1); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, ok := nodes[1].Store().Get(id); !ok {
			t.Errorf("joined node lacks record %d", id)
		}
	}
}

func TestChangePAccounting(t *testing.T) {
	c := newLogged(t, 4)
	enc := slimEncoder()
	nodes, addrs := startNodes(t, enc, 4)
	for _, a := range addrs {
		if _, err := c.Join(context.Background(), a, 1); err != nil {
			t.Fatal(err)
		}
	}
	recs := corpus(t, enc, 400)
	if err := c.LoadCorpus(context.Background(), recs); err != nil {
		t.Fatal(err)
	}
	startLen := nodes[0].Store().Len()
	// p 4 -> 2: replicas grow; data must be pushed, nodes grow.
	before := c.ObjectsPushed()
	if err := c.ChangeP(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if c.ObjectsPushed() == before {
		t.Error("decreasing p must transfer data")
	}
	if c.P() != 2 {
		t.Errorf("P = %d, want 2", c.P())
	}
	if nodes[0].Store().Len() <= startLen {
		t.Error("stores should grow when replicas are added")
	}
	// p 2 -> 4: free, nodes shrink back.
	before = c.ObjectsPushed()
	if err := c.ChangeP(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	if c.ObjectsPushed() != before {
		t.Error("increasing p must transfer nothing")
	}
	if got := nodes[0].Store().Len(); got > startLen+5 {
		t.Errorf("store should shrink back to ~%d, has %d", startLen, got)
	}
	if err := c.ChangeP(context.Background(), 0); err == nil {
		t.Error("p=0 rejected")
	}
	if err := c.ChangeP(context.Background(), 4); err != nil {
		t.Error("no-op change should succeed")
	}
}

func TestLeaveReloadsPredecessor(t *testing.T) {
	c := newLogged(t, 2)
	enc := slimEncoder()
	_, addrs := startNodes(t, enc, 3)
	var ids []ring.NodeID
	for _, a := range addrs {
		j, err := c.Join(context.Background(), a, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ring.NodeID(j.ID))
	}
	if err := c.LoadCorpus(context.Background(), corpus(t, enc, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(context.Background(), ids[1]); err != nil {
		t.Fatal(err)
	}
	v := c.View()
	if len(v.Nodes) != 2 {
		t.Errorf("view has %d nodes after leave", len(v.Nodes))
	}
	if err := c.Leave(context.Background(), ids[1]); err == nil {
		t.Error("double leave rejected")
	}
}

func TestReportSpeeds(t *testing.T) {
	c, err := New(Config{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	enc := slimEncoder()
	_, addrs := startNodes(t, enc, 1)
	j, err := c.Join(context.Background(), addrs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	c.ReportSpeeds(map[ring.NodeID]float64{ring.NodeID(j.ID): 42, 999: 5})
	c.mu.Lock()
	got := c.speeds[ring.NodeID(j.ID)]
	_, unknown := c.speeds[999]
	c.mu.Unlock()
	if got != 42 {
		t.Errorf("reported speed not applied: %v", got)
	}
	if unknown {
		t.Error("speeds for unknown nodes must be ignored")
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		c.ReportSpeeds(map[ring.NodeID]float64{ring.NodeID(j.ID): bad})
		c.mu.Lock()
		got := c.speeds[ring.NodeID(j.ID)]
		c.mu.Unlock()
		if got != 42 {
			t.Errorf("reported speed %v replaced 42 with %v", bad, got)
		}
	}
}

// TestJoinSpeedHintNormalised: a join hint that is not a positive finite
// speed is stored as 1 on both placement paths, so the exported state
// always encodes (encoding/json refuses NaN and ±Inf, and a replicated
// coordinator ships that state with every commit).
func TestJoinSpeedHintNormalised(t *testing.T) {
	c, err := New(Config{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, addrs := startNodes(t, slimEncoder(), 4)
	joins := []struct {
		hint float64
		rack string
	}{
		{1, "rackA"},
		{0, "rackA"}, // splits the first node's range
		{math.NaN(), ""},
		{math.Inf(1), ""},
	}
	for i, j := range joins {
		if _, err := c.JoinRack(context.Background(), addrs[i], j.hint, j.rack); err != nil {
			t.Fatal(err)
		}
	}
	st := c.ExportState()
	if len(st.Nodes) != len(joins) {
		t.Fatalf("exported %d nodes, want %d", len(st.Nodes), len(joins))
	}
	for _, n := range st.Nodes {
		if n.Speed != 1 {
			t.Errorf("node %d exported speed %v, want 1", n.ID, n.Speed)
		}
	}
	if _, err := json.Marshal(st); err != nil {
		t.Errorf("exported state does not encode: %v", err)
	}
}

func TestJoinRackPlacesAdjacent(t *testing.T) {
	c, err := New(Config{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	enc := slimEncoder()
	_, addrs := startNodes(t, enc, 6)
	// Two racks, three nodes each, interleaved joins.
	racks := []string{"rackA", "rackB", "rackA", "rackB", "rackA", "rackB"}
	var ids []ring.NodeID
	for i, a := range addrs {
		j, err := c.JoinRack(context.Background(), a, 1, racks[i])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ring.NodeID(j.ID))
	}
	for i, id := range ids {
		if got := c.RackOf(id); got != racks[i] {
			t.Errorf("node %d rack = %q, want %q", id, got, racks[i])
		}
	}
	// Same-rack nodes must be consecutive on the ring: walking the view
	// in start order, rack changes should be minimal (2 boundaries for 2
	// contiguous groups).
	v := c.View()
	type nr struct {
		start float64
		rack  string
	}
	var order []nr
	for _, ni := range v.Nodes {
		order = append(order, nr{ni.Start, c.RackOf(ring.NodeID(ni.ID))})
	}
	sort.Slice(order, func(a, b int) bool { return order[a].start < order[b].start })
	changes := 0
	for i := range order {
		if order[i].rack != order[(i+1)%len(order)].rack {
			changes++
		}
	}
	if changes > 2 {
		t.Errorf("racks fragmented: %d rack boundaries on the ring, want 2 (§4.9.2)", changes)
	}
	// Unlabelled join falls back to the hotspot path.
	_, fallbackAddrs := startNodes(t, enc, 1)
	if _, err := c.JoinRack(context.Background(), fallbackAddrs[0], 1, ""); err != nil {
		t.Fatal(err)
	}
}

func TestViewEpochAdvances(t *testing.T) {
	c, err := New(Config{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	enc := slimEncoder()
	_, addrs := startNodes(t, enc, 2)
	e0 := c.View().Epoch
	if _, err := c.Join(context.Background(), addrs[0], 1); err != nil {
		t.Fatal(err)
	}
	if c.View().Epoch <= e0 {
		t.Error("join must advance the epoch")
	}
}
