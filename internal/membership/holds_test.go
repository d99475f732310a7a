package membership

import (
	"context"
	"math"
	"slices"
	"testing"

	"roar/internal/node"
	"roar/internal/pps"
	"roar/internal/ring"
	"roar/internal/store"
)

// inSpans reports whether id lies in one of spans.
func inSpans(spans []store.Span, id uint64) bool {
	return slices.ContainsFunc(spans, func(sp store.Span) bool { return sp.First <= id && id <= sp.Last })
}

// heldSpans maps every node of c's published layout, powered-down rings
// included, to store.StoredSpans of its range at c's p: what the node
// must hold.
func heldSpans(c *Coordinator) map[ring.NodeID][]store.Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	held := map[ring.NodeID][]store.Span{}
	for _, r := range c.rings {
		for _, id := range r.IDs() {
			a, _ := r.Range(id)
			held[id] = store.StoredSpans(a, c.p)
		}
	}
	return held
}

// nearOffsets are the corpus ids' distances from a ring point: every
// offset up to ±16 and 2^k-1, 2^k and 2^k+1 either side up to 4096. A
// float64 point near the ring's top is one of 2^11 consecutive ids, so
// these reach past the ids that round onto the point and the next one.
func nearOffsets() []int64 {
	var offs []int64
	for d := int64(-16); d <= 16; d++ {
		offs = append(offs, d)
	}
	for k := 5; k <= 12; k++ {
		for _, d := range []int64{-1, 0, 1} {
			offs = append(offs, 1<<k+d, -(1<<k + d))
		}
	}
	return offs
}

// holdingSteps joins addrs[:6] to c, three to each of its two rings,
// loads recs and runs one of each kind of move: BalanceStep, a Join of
// addrs[6], Leave, ChangeP 4 -> 2 and 2 -> 4, and ring 1 off and on
// again. It calls check after the load and after every move.
func holdingSteps(t *testing.T, c *Coordinator, addrs []string, recs []pps.Encoded, check func(step string)) {
	t.Helper()
	ctx := context.Background()
	var ids []ring.NodeID
	for _, a := range addrs[:6] {
		j, err := c.Join(ctx, a, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ring.NodeID(j.ID))
	}
	if err := c.LoadCorpus(ctx, recs); err != nil {
		t.Fatal(err)
	}
	check("load")
	steps := []struct {
		name string
		run  func() error
	}{
		{"BalanceStep", func() error {
			// Ring 0 is nodes 0, 4 and 2 from 0, 1/4 and 1/2: node 0
			// grows into node 4 by 0.3 of its range, so a start leaves
			// the dyadic points joins give.
			moves, err := c.BalanceStep(ctx, map[ring.NodeID]float64{ids[0]: 1, ids[2]: 1, ids[4]: 10}, 0.3)
			if err == nil && moves != 1 {
				t.Errorf("BalanceStep made %d moves, want 1", moves)
			}
			return err
		}},
		{"Join", func() error {
			_, err := c.Join(ctx, addrs[6], 1)
			return err
		}},
		{"Leave", func() error { return c.Leave(ctx, ids[0]) }},
		{"ChangeP 4->2", func() error { return c.ChangeP(ctx, 2) }},
		{"ChangeP 2->4", func() error { return c.ChangeP(ctx, 4) }},
		{"ring 1 off", func() error { return c.SetRingEnabled(ctx, 1, false) }},
		{"ring 1 on", func() error { return c.SetRingEnabled(ctx, 1, true) }},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		check(s.name)
	}
}

// TestNodesHoldExactlyStoredSpans: routing, pushes and trims all read
// store.StoredSpans, so after every kind of move each node holds exactly
// the ids of its stored spans, not one more or less. The corpus sits
// around every node start, every range end and every start-1/p that any
// layout of the sequence has (a first run over an empty corpus finds
// them), where float placement rounds: routed by the record's ring
// point, the id of a range end and ids that round onto start-1/p miss
// the node.
func TestNodesHoldExactlyStoredSpans(t *testing.T) {
	cfg := Config{P: 4, Rings: 2}
	points := map[ring.Point]bool{}
	dry := newLoggedConfig(t, cfg)
	_, addrs := startNodes(t, slimEncoder(), 7)
	holdingSteps(t, dry, addrs, nil, func(string) { addLayoutPoints(dry, points) })
	recs := corpusNear(points)

	// A node's id is its join order, which is its index in nodes.
	c := newLoggedConfig(t, cfg)
	nodes, addrs := startNodes(t, slimEncoder(), 7)
	holdingSteps(t, c, addrs, recs, func(step string) { checkHoldings(t, c, nodes, recs, step) })
}

// TestBalanceStepTwoNodeRings: on rings of two nodes, where a node's
// predecessor is also its successor, BalanceStep still moves the
// boundary into a node ten times as loaded as the other, and every node
// then holds exactly its stored spans.
func TestBalanceStepTwoNodeRings(t *testing.T) {
	cfg := Config{P: 4, Rings: 2}
	steps := func(c *Coordinator, addrs []string, recs []pps.Encoded, check func(step string)) {
		ctx := context.Background()
		for _, a := range addrs {
			if _, err := c.Join(ctx, a, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.LoadCorpus(ctx, recs); err != nil {
			t.Fatal(err)
		}
		check("load")
		loads := map[ring.NodeID]float64{}
		var heavy []ring.NodeID
		var before []float64
		c.mu.Lock()
		for _, r := range c.rings {
			ids := r.IDs()
			if len(ids) != 2 {
				t.Fatalf("a ring has nodes %v, want two", ids)
			}
			loads[ids[0]], loads[ids[1]] = 1, 10
			a, _ := r.Range(ids[1])
			heavy, before = append(heavy, ids[1]), append(before, a.Length)
		}
		c.mu.Unlock()
		moves, err := c.BalanceStep(ctx, loads, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if moves != 2 {
			t.Errorf("BalanceStep made %d moves, want one a ring", moves)
		}
		c.mu.Lock()
		for k, id := range heavy {
			if a, _ := c.rings[k].Range(id); math.Abs(a.Length-0.7*before[k]) > 1e-9 {
				t.Errorf("ring %d: node %d spans %v after the move, want 0.7 of %v", k, id, a.Length, before[k])
			}
		}
		c.mu.Unlock()
		check("BalanceStep")
	}
	points := map[ring.Point]bool{}
	dry := newLoggedConfig(t, cfg)
	_, addrs := startNodes(t, slimEncoder(), 4)
	steps(dry, addrs, nil, func(string) { addLayoutPoints(dry, points) })
	recs := corpusNear(points)

	c := newLoggedConfig(t, cfg)
	nodes, addrs := startNodes(t, slimEncoder(), 4)
	steps(c, addrs, recs, func(step string) { checkHoldings(t, c, nodes, recs, step) })
}

// addLayoutPoints adds every node start, range end and start-1/p (at
// p = 2 and 4) of c's layout to points.
func addLayoutPoints(c *Coordinator, points map[ring.Point]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range []int{2, 4} {
		for _, r := range c.rings {
			for _, id := range r.IDs() {
				a, _ := r.Range(id)
				points[a.Start], points[a.End()], points[a.Start.Add(-1/float64(p))] = true, true, true
			}
		}
	}
}

// corpusNear is one record at every nearOffsets distance from each of
// points.
func corpusNear(points map[ring.Point]bool) []pps.Encoded {
	ids := map[uint64]bool{}
	for x := range points {
		for _, d := range nearOffsets() {
			ids[store.IDOf(x)+uint64(d)] = true
		}
	}
	var recs []pps.Encoded
	for id := range ids {
		recs = append(recs, pps.Encoded{ID: id, BloomMetadata: pps.BloomMetadata{Nonce: make([]byte, 16), Filter: make([]byte, 32)}})
	}
	return recs
}

// checkHoldings fails t unless every node of c holds exactly the records
// of recs in its stored spans; nodes[id] is node id.
func checkHoldings(t *testing.T, c *Coordinator, nodes []*node.Node, recs []pps.Encoded, step string) {
	t.Helper()
	for id, spans := range heldSpans(c) {
		var want []uint64
		for _, rec := range recs {
			if inSpans(spans, rec.ID) {
				want = append(want, rec.ID)
			}
		}
		var got []uint64
		for _, rec := range nodes[id].Store().InSpans([]store.Span{{First: 0, Last: math.MaxUint64}}) {
			got = append(got, rec.ID)
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			extra, missing := 0, 0
			for _, x := range got {
				if _, ok := slices.BinarySearch(want, x); !ok {
					extra++
				}
			}
			for _, x := range want {
				if _, ok := slices.BinarySearch(got, x); !ok {
					missing++
				}
			}
			t.Errorf("after %s node %d holds %d ids its stored spans lack and lacks %d of theirs", step, id, extra, missing)
		}
	}
}
