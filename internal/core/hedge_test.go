package core

import (
	"math/rand"
	"testing"

	"roar/internal/ring"
)

// hedgeCovers checks that every id the original sub-query would read is
// stored on (and read by) at least one replacement's node —
// the correctness property hedging and failure repair rely on.
func hedgeCovers(t *testing.T, pl *Placement, orig SubQuery, hedges []SubQuery) {
	t.Helper()
	for _, h := range hedges {
		if h.Lo != orig.Lo || h.Hi != orig.Hi {
			t.Fatalf("hedge sub changed the match arc: (%v,%v] vs (%v,%v]", h.Lo, h.Hi, orig.Lo, orig.Hi)
		}
		if h.Node == orig.Node {
			t.Fatalf("hedge sub targets the primary node %d", orig.Node)
		}
	}
	var nodes []ring.NodeID
	for _, h := range hedges {
		nodes = append(nodes, h.Node)
	}
	if rest := unread(t, pl, orig.Lo, orig.Hi, nodes...); len(rest) > 0 {
		t.Fatalf("ids %v of the hedged arc stored on no hedge node %v", rest, hedges)
	}
}

// The TestHedgeSubs tests pin Replace as a hedge sees it: the primary
// is avoided, not failed.

func TestHedgeSubsBracketPairSingleRing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 12 + rng.Intn(16)
		p := 3 + rng.Intn(3)
		pl := mustPlacement(t, p, randomRing(n, 0, rng))
		plan, err := pl.Schedule(p, uniformEst)
		if err != nil {
			t.Fatal(err)
		}
		orig := plan.Subs[0]
		hedges, err := pl.Replace(orig, nil, uniformEst, rng)
		if err != nil {
			// Only a primary too wide to bracket excuses failure.
			arc, _, _ := pl.NodeRange(orig.Node)
			if arc.Length < (1/float64(p))*0.9 {
				t.Fatalf("trial %d: unexpected hedge failure: %v", trial, err)
			}
			continue
		}
		hedgeCovers(t, pl, orig, hedges)
	}
}

// offsetRing is n equal ranges starting at offset, with ids from idBase:
// a second ring (§4.7) whose boundaries differ from ring.NewEqual's.
func offsetRing(t *testing.T, n int, idBase ring.NodeID, offset float64) *ring.Ring {
	t.Helper()
	r := ring.New()
	for i := 0; i < n; i++ {
		if err := r.Insert(idBase+ring.NodeID(i), ring.Norm(float64(i)/float64(n)+offset)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestHedgeSubsPrefersSingleReplicaAcrossRings(t *testing.T) {
	// Two rings (§4.7): every arc has an independent owner on the other
	// ring, so a slow primary hedges onto exactly one covering node.
	rng := rand.New(rand.NewSource(11))
	pl := mustPlacement(t, 3, ring.NewEqual(6), offsetRing(t, 6, 100, 0.03))
	plan, err := pl.Schedule(3, uniformEst)
	if err != nil {
		t.Fatal(err)
	}
	for _, orig := range plan.Subs {
		hedges, err := pl.Replace(orig, nil, uniformEst, rng)
		if err != nil {
			t.Fatalf("hedge failed with a whole spare ring: %v", err)
		}
		if len(hedges) != 1 {
			t.Fatalf("want single-replica hedge across rings, got %d subs", len(hedges))
		}
		hedgeCovers(t, pl, orig, hedges)
	}
}

func TestHedgeSubsRespectsAvoidSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pl := mustPlacement(t, 3, ring.NewEqual(12))
	plan, err := pl.Schedule(3, uniformEst)
	if err != nil {
		t.Fatal(err)
	}
	orig := plan.Subs[0]
	// Avoid a couple of nodes adjacent to the primary.
	succ, _ := pl.rings[0].Successor(orig.Node)
	pred, _ := pl.rings[0].Predecessor(orig.Node)
	avoid := map[ring.NodeID]bool{succ: true, pred: true}
	hedges, err := pl.Replace(orig, avoid, uniformEst, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hedges {
		if avoid[h.Node] {
			t.Fatalf("hedge targets avoided node %d", h.Node)
		}
	}
	hedgeCovers(t, pl, orig, hedges)
}

// TestRepairPlanRefusesUnbracketableRange is the regression test for
// the bracket-window wrap bug: with n == p every node's range equals
// 1/p, wider than the 1/p−δ bracket span, so no replacement pair can
// straddle the failed node. The repair must say so — the buggy
// clockwise-distance window wrapped to ~1 and returned pairs that
// silently lost part of the arc.
func TestRepairPlanRefusesUnbracketableRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pl := mustPlacement(t, 4, ring.NewEqual(4))
	plan, err := pl.Schedule(4, uniformEst)
	if err != nil {
		t.Fatal(err)
	}
	failed := map[ring.NodeID]bool{plan.Subs[0].Node: true}
	if _, err := repairPlan(pl, plan, failed, uniformEst, rng); err == nil {
		t.Fatal("the repair produced a bracket for a node range wider than 1/p-δ; such pairs cannot cover the arc")
	}
}

// TestRepairTwoRingsSendsOneLeg: with a second ring every failed
// sub-query is re-sent to that ring's owner of its arc, one leg, as a
// hedge of the same sub-query is; the §4.4 bracket pair (two legs on
// the failed node's own ring) is for when no other ring can serve it.
func TestRepairTwoRingsSendsOneLeg(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pl := mustPlacement(t, 3, ring.NewEqual(6), offsetRing(t, 6, 100, 0.03))
	plan, err := pl.Schedule(3, uniformEst)
	if err != nil {
		t.Fatal(err)
	}
	for _, orig := range plan.Subs {
		failed := map[ring.NodeID]bool{orig.Node: true}
		repaired, err := repairPlan(pl, plan, failed, uniformEst, rng)
		if err != nil {
			t.Fatalf("repair of node %d with a whole spare ring: %v", orig.Node, err)
		}
		if len(repaired.Subs) != len(plan.Subs) {
			t.Fatalf("repair of node %d sent %d legs for %d sub-queries, want one leg for the failed one",
				orig.Node, len(repaired.Subs), len(plan.Subs))
		}
		var reps []SubQuery
		for _, s := range repaired.Subs {
			if failed[s.Node] {
				t.Fatalf("repaired plan still targets node %d", s.Node)
			}
			if s.Ring != orig.Ring && s.Lo == orig.Lo && s.Hi == orig.Hi {
				reps = append(reps, s)
			}
		}
		if len(reps) != 1 {
			t.Fatalf("want the failed arc on one node of the other ring, got %v", reps)
		}
		hedgeCovers(t, pl, orig, reps)
	}
}

// TestRepairWideRangeUsesOtherRing: with n == p on ring 0 every range is
// 1/p, too wide to bracket (TestRepairPlanRefusesUnbracketableRange),
// but ring 1 holds every record of the failed arc, so the repair must
// succeed there.
func TestRepairWideRangeUsesOtherRing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r0, r1 := ring.NewEqual(4), offsetRing(t, 4, 100, 0.1)
	pl := mustPlacement(t, 4, r0, r1)
	// Ring 1 is slower, so the schedule puts every sub-query on ring 0.
	speeds := map[ring.NodeID]float64{}
	for _, id := range r0.IDs() {
		speeds[id] = 2
	}
	for _, id := range r1.IDs() {
		speeds[id] = 1
	}
	est := speedEst(speeds)
	plan, err := pl.Schedule(4, est)
	if err != nil {
		t.Fatal(err)
	}
	orig := plan.Subs[0]
	if orig.Ring != 0 {
		t.Fatalf("schedule put the first sub-query on ring %d, want 0", orig.Ring)
	}
	repaired, err := repairPlan(pl, plan, map[ring.NodeID]bool{orig.Node: true}, est, rng)
	if err != nil {
		t.Fatalf("repair with ring 1 present: %v", err)
	}
	var reps []SubQuery
	for _, s := range repaired.Subs {
		if s.Node == orig.Node {
			t.Fatal("repaired plan still targets the failed node")
		}
		if s.Lo == orig.Lo && s.Hi == orig.Hi {
			reps = append(reps, s)
		}
	}
	if len(reps) != 1 || reps[0].Ring != 1 {
		t.Fatalf("want one leg on ring 1, got %v", reps)
	}
	hedgeCovers(t, pl, orig, reps)
}

// FuzzReplaceCoversArc is the property of the one replica rule over
// random layouts: 1–3 random rings, a random p, a random sub-query of a
// Schedule and a random avoid set. Every replacement keeps the arc and
// avoids the primary and the avoid set, and the replacements together
// store every object of the arc. An error is allowed only when no ring
// can serve the arc and the bracket is impossible: its window is empty,
// or the primary and the avoided nodes block nearly every pair in it.
func FuzzReplaceCoversArc(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3), uint8(0), uint64(0))
	f.Add(int64(2), uint8(1), uint8(4), uint8(1), uint64(0x5))
	f.Add(int64(3), uint8(2), uint8(2), uint8(3), uint64(0xf0f0))
	f.Fuzz(func(t *testing.T, seed int64, rings, p, extra uint8, avoidBits uint64) {
		rng := rand.New(rand.NewSource(seed))
		pp := 1 + int(p%6)
		var rs []*ring.Ring
		for k := 0; k <= int(rings%3); k++ {
			rs = append(rs, randomRing(1+rng.Intn(16), ring.NodeID(100*k), rng))
		}
		pl := mustPlacement(t, pp, rs...)
		plan, err := pl.Schedule(pp+int(extra%3), uniformEst)
		if err != nil {
			t.Fatal(err)
		}
		orig := plan.Subs[rng.Intn(len(plan.Subs))]
		avoid := map[ring.NodeID]bool{}
		for k, r := range rs {
			for i, id := range r.IDs() {
				if avoidBits>>(uint(16*k+i)%64)&1 == 1 {
					avoid[id] = true
				}
			}
		}
		excluded := func(id ring.NodeID) bool { return id == orig.Node || avoid[id] }
		subs, err := pl.Replace(orig, avoid, uniformEst, rng)
		if err == nil {
			for _, s := range subs {
				if excluded(s.Node) {
					t.Fatalf("replacement targets excluded node %d (primary %d, avoid %v)", s.Node, orig.Node, avoid)
				}
			}
			hedgeCovers(t, pl, orig, subs)
			return
		}
		for _, r := range rs {
			if id := r.Owner(orig.Hi); !excluded(id) && pl.CanServe(id, orig.Lo, orig.Hi) {
				t.Fatalf("%v although node %d can serve the arc", err, id)
			}
		}
		arc, rk, _ := pl.NodeRange(orig.Node)
		span := (1 - DeltaFraction) / float64(pp)
		window := span - arc.Length
		if window <= 0 {
			return
		}
		// The bracket draws 64 random pairs from the window: a quarter of
		// it free of excluded nodes would fail to be found 0.75^64 ≈ 1e-8
		// of the time.
		const samples = 256
		free := 0
		for i := 0; i < samples; i++ {
			x := arc.End().Add(-span).Add(window * (float64(i) + 0.5) / samples)
			if !excluded(rs[rk].Owner(x)) && !excluded(rs[rk].Owner(x.Add(span))) {
				free++
			}
		}
		if free*4 >= samples {
			t.Fatalf("%v although %d of %d sampled bracket pairs are free", err, free, samples)
		}
	})
}
