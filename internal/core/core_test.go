package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"roar/internal/ring"
	"roar/internal/store"
)

// uniformEst models identical servers: finish time proportional to
// sub-query size.
var uniformEst = EstimatorFunc(func(id ring.NodeID, size float64) float64 {
	return size
})

// speedEst builds an estimator from a speed table: finish = size/speed.
func speedEst(speeds map[ring.NodeID]float64) Estimator {
	return EstimatorFunc(func(id ring.NodeID, size float64) float64 {
		s, ok := speeds[id]
		if !ok || s <= 0 {
			return math.Inf(1)
		}
		return size / s
	})
}

func mustPlacement(t testing.TB, p int, rings ...*ring.Ring) *Placement {
	t.Helper()
	pl, err := NewPlacement(p, rings...)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// randomRing builds a ring with n nodes at random positions, ids offset
// to keep multi-ring ids unique.
func randomRing(n int, idBase ring.NodeID, rng *rand.Rand) *ring.Ring {
	r := ring.New()
	id := idBase
	for r.Len() < n {
		if err := r.Insert(id, ring.Norm(rng.Float64())); err == nil {
			id++
		}
	}
	return r
}

func TestNewPlacementValidation(t *testing.T) {
	if _, err := NewPlacement(0, ring.NewEqual(4)); err == nil {
		t.Error("p=0 should be rejected")
	}
	if _, err := NewPlacement(2); err == nil {
		t.Error("no rings should be rejected")
	}
	// Duplicate ids across rings rejected.
	if _, err := NewPlacement(2, ring.NewEqual(4), ring.NewEqual(4)); err == nil {
		t.Error("duplicate node ids across rings should be rejected")
	}
}

// held returns the ids node id holds under pl: store.StoredSpans of its
// range, the rule routing, pushes and trims place records by.
func held(t testing.TB, pl *Placement, id ring.NodeID) []store.Span {
	t.Helper()
	a, _, err := pl.NodeRange(id)
	if err != nil {
		t.Fatal(err)
	}
	return store.StoredSpans(a, pl.P())
}

// holds reports whether one of spans holds id.
func holds(spans []store.Span, id uint64) bool {
	return slices.ContainsFunc(spans, func(sp store.Span) bool { return sp.First <= id && id <= sp.Last })
}

// unread returns the ids of arc (lo, hi] that none of nodes holds.
func unread(t testing.TB, pl *Placement, lo, hi ring.Point, nodes ...ring.NodeID) []store.Span {
	t.Helper()
	rest := store.ArcSpans(lo, hi)
	for _, id := range nodes {
		rest = store.Minus(rest, held(t, pl, id))
	}
	return rest
}

func TestHoldersCount(t *testing.T) {
	// n=12, p=4 => r=n/p=3 (the running example of Figs 3.1/4.1).
	const n, p = 12, 4
	pl := mustPlacement(t, p, ring.NewEqual(n))
	spans := make([][]store.Span, n)
	for id := range spans {
		spans[id] = held(t, pl, ring.NodeID(id))
	}
	rng := rand.New(rand.NewSource(1))
	total := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		id := rng.Uint64()
		for _, sp := range spans {
			if holds(sp, id) {
				total++
			}
		}
	}
	avg := float64(total) / trials
	// Replication arc 1/4 intersects 3 or 4 equal ranges of width 1/12:
	// average must sit near n/p+1=4 (an arc of length 1/p crosses on
	// average n/p boundaries, touching n/p + 1 ranges).
	if want := float64(n)/p + 1; math.Abs(avg-want) > 0.5 {
		t.Errorf("average holders = %v, want ≈%v", avg, want)
	}
}

// partitionError returns nil when the id spans of subs' arcs, sorted,
// partition the id ring: every id read by exactly one sub-query.
func partitionError(subs []SubQuery) error {
	var spans []store.Span
	for _, s := range subs {
		spans = append(spans, store.ArcSpans(s.Lo, s.Hi)...)
	}
	slices.SortFunc(spans, func(a, b store.Span) int { return cmp.Compare(a.First, b.First) })
	next := uint64(0)
	for i, sp := range spans {
		if sp.First != next || i > 0 && spans[i-1].Last == math.MaxUint64 {
			return fmt.Errorf("from id %#x the spans %v leave a gap or overlap", next, spans)
		}
		next = sp.Last + 1
	}
	if len(spans) == 0 || spans[len(spans)-1].Last != math.MaxUint64 {
		return fmt.Errorf("the spans %v stop short of the ring's end", spans)
	}
	return nil
}

// checkPlan asserts the two fundamental plan invariants, exactly in id
// space: the sub-queries' id spans partition the ring, and every
// sub-query's node holds every id it reads, as CanServe promises.
func checkPlan(t *testing.T, pl *Placement, plan Plan) {
	t.Helper()
	if err := partitionError(plan.Subs); err != nil {
		t.Fatalf("plan start %v pq %d: %v", plan.Start, plan.PQ, err)
	}
	for i, s := range plan.Subs {
		if !pl.CanServe(s.Node, s.Lo, s.Hi) {
			t.Fatalf("sub %d: node %d cannot serve (%v,%v]", i, s.Node, s.Lo, s.Hi)
		}
		if rest := unread(t, pl, s.Lo, s.Hi, s.Node); len(rest) > 0 {
			t.Fatalf("sub %d: node %d reads %v of (%v,%v] that it does not hold", i, s.Node, rest, s.Lo, s.Hi)
		}
	}
}

func TestScheduleBasic(t *testing.T) {
	pl := mustPlacement(t, 4, ring.NewEqual(12))
	plan, err := pl.Schedule(4, uniformEst)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Subs) != 4 {
		t.Fatalf("got %d sub-queries, want 4", len(plan.Subs))
	}
	checkPlan(t, pl, plan)
	if math.Abs(plan.Delay-0.25) > 1e-9 {
		t.Errorf("uniform delay = %v, want 0.25", plan.Delay)
	}
}

func TestSchedulePqGreaterThanP(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pl := mustPlacement(t, 3, randomRing(12, 0, rng))
	for _, pq := range []int{3, 4, 6, 12} {
		plan, err := pl.Schedule(pq, uniformEst)
		if err != nil {
			t.Fatalf("pq=%d: %v", pq, err)
		}
		if len(plan.Subs) != pq {
			t.Fatalf("pq=%d: got %d subs", pq, len(plan.Subs))
		}
		checkPlan(t, pl, plan)
	}
	if _, err := pl.Schedule(2, uniformEst); err == nil {
		t.Error("pq < p must be rejected")
	}
}

func TestSchedulePicksFastServers(t *testing.T) {
	// Two nodes, p=1: the query goes entirely to one node; the scheduler
	// must pick the faster one.
	r := ring.New()
	_ = r.Insert(0, 0)
	_ = r.Insert(1, 0.5)
	pl := mustPlacement(t, 1, r)
	est := speedEst(map[ring.NodeID]float64{0: 1, 1: 10})
	plan, err := pl.Schedule(1, est)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Subs[0].Node != 1 {
		t.Errorf("scheduler picked node %d, want the 10x faster node 1", plan.Subs[0].Node)
	}
}

func TestScheduleMatchesStrawman(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(30)
		p := 1 + rng.Intn(n/2)
		pl := mustPlacement(t, p, randomRing(n, 0, rng))
		speeds := map[ring.NodeID]float64{}
		for _, id := range pl.rings[0].IDs() {
			speeds[id] = 0.5 + rng.Float64()*10
		}
		est := speedEst(speeds)
		fast, err := pl.Schedule(p, est)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := pl.ScheduleStrawman(p, est)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast.Delay-slow.Delay) > 1e-9*math.Max(1, slow.Delay) {
			t.Fatalf("trial %d (n=%d p=%d): Algorithm 1 delay %v != strawman %v",
				trial, n, p, fast.Delay, slow.Delay)
		}
	}
}

func TestScheduleRandomNeverBeatsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pl := mustPlacement(t, 4, randomRing(20, 0, rng))
	speeds := map[ring.NodeID]float64{}
	for _, id := range pl.rings[0].IDs() {
		speeds[id] = 0.5 + rng.Float64()*10
	}
	est := speedEst(speeds)
	opt, _ := pl.Schedule(4, est)
	for _, tries := range []int{1, 4, 16} {
		rp, err := pl.ScheduleRandom(4, tries, est, rng)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Delay < opt.Delay-1e-9 {
			t.Fatalf("random (%d tries) beat Algorithm 1: %v < %v", tries, rp.Delay, opt.Delay)
		}
	}
}

func TestScheduleMultiRing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r1 := randomRing(10, 0, rng)
	r2 := randomRing(10, 100, rng)
	pl := mustPlacement(t, 4, r1, r2)
	speeds := map[ring.NodeID]float64{}
	for _, id := range append(r1.IDs(), r2.IDs()...) {
		speeds[id] = 0.5 + rng.Float64()*5
	}
	est := speedEst(speeds)
	plan, err := pl.Schedule(4, est)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, pl, plan)
	// Two-ring delay must be no worse than either single ring alone.
	pl1 := mustPlacement(t, 4, r1)
	p1, _ := pl1.Schedule(4, est)
	if plan.Delay > p1.Delay+1e-9 {
		t.Errorf("two-ring delay %v worse than ring-1 alone %v", plan.Delay, p1.Delay)
	}
	// And it must match the strawman on the same placement.
	slow, _ := pl.ScheduleStrawman(4, est)
	if math.Abs(plan.Delay-slow.Delay) > 1e-9 {
		t.Errorf("multi-ring Algorithm 1 %v != strawman %v", plan.Delay, slow.Delay)
	}
}

func TestCanServe(t *testing.T) {
	pl := mustPlacement(t, 4, ring.NewEqual(8)) // ranges of 1/8, repl 1/4
	// Node 2 owns [0.25, 0.375): it stores the objects of (0, 0.375].
	if !pl.CanServe(2, 0.05, 0.3) {
		t.Error("node 2 should serve (0.05, 0.3]")
	}
	// Both bounds of the stored set are served: a leg ending at the range
	// end, and one starting at the range start - 1/p.
	if !pl.CanServe(2, 0.3, 0.375) {
		t.Error("node 2 should serve a leg ending at its range end")
	}
	if !pl.CanServe(2, 0, 0.1) {
		t.Error("node 2 should serve a leg starting at its range start - 1/p")
	}
	if pl.CanServe(2, 0.05, 0.4) {
		t.Error("node 2 must not serve past its range end")
	}
	if pl.CanServe(2, 0.95, 0.2) {
		t.Error("node 2 must not serve ids at/before its stored-set start")
	}
	if !pl.CanServe(2, 0.01, 0.25) {
		t.Error("node 2 stores objects straddling its range start")
	}
	// An arc wider than 1/p is fine while it fits the stored set
	// (range + 1/p = 0.375 here)...
	if !pl.CanServe(2, 0.01, 0.3) {
		t.Error("arc wider than 1/p but inside the stored set should be servable")
	}
	// ...but an arc wider than the stored set is not.
	if pl.CanServe(2, 0.9, 0.3) {
		t.Error("arc wider than the stored set must be rejected")
	}
	// lo == hi is the full ring (pq = 1): only a node whose stored set
	// covers everything can serve it.
	if pl.CanServe(2, 0.1, 0.1) {
		t.Error("full-ring arc must not be servable by a 1/8-range node at p=4")
	}
	pl1 := mustPlacement(t, 1, ring.NewEqual(8))
	if !pl1.CanServe(2, 0.1, 0.1) {
		t.Error("at p=1 every node stores everything and serves the full arc")
	}
}

func TestCanServeAgainstStores(t *testing.T) {
	// Property: CanServe(lo,hi) == the node holds every id of (lo,hi], on
	// random arcs and on arcs at either bound of the node's stored set:
	// ending at its range end, or starting at its start - 1/p.
	rng := rand.New(rand.NewSource(8))
	const p = 6
	pl := mustPlacement(t, p, randomRing(18, 0, rng))
	for trial := 0; trial < 1200; trial++ {
		id := ring.NodeID(rng.Intn(18))
		arc, _, _ := pl.NodeRange(id)
		size := rng.Float64() / p // up to 1/p
		lo := ring.Norm(rng.Float64())
		hi := lo.Add(size)
		switch trial % 3 {
		case 1:
			hi = arc.End()
			lo = hi.Add(-size)
		case 2:
			lo = arc.Start.Add(-1.0 / p)
			hi = lo.Add(size)
		}
		can, all := pl.CanServe(id, lo, hi), len(unread(t, pl, lo, hi, id)) == 0
		if can != all {
			t.Fatalf("node %d, arc (%v,%v]: CanServe %v, but holds every id %v", id, lo, hi, can, all)
		}
	}
}

// TestAdjustRangesNeverEmptiesALeg: a shift that took all of the slow
// leg's arc would leave it Lo == Hi, which reads the full ring. Node 0,
// a one-node ring, stores every id and is far faster than node 101, so
// equalise gives it the whole of 101's leg on either side; the shift
// must be refused and the plan stay a partition.
func TestAdjustRangesNeverEmptiesALeg(t *testing.T) {
	pl := mustPlacement(t, 4, ring.NewEqual(1), offsetRing(t, 4, 100, 0))
	est := EstimatorFunc(func(id ring.NodeID, size float64) float64 {
		if id == 101 {
			return 10 + size
		}
		return size
	})
	plan := Plan{PQ: 2, Subs: []SubQuery{
		{Node: 0, Ring: 0, Lo: 0.5, Hi: 0.25, Est: 0.75},
		{Node: 101, Ring: 1, Lo: 0.25, Hi: 0.5, Est: 10.25},
	}}
	checkPlan(t, pl, plan)
	checkPlan(t, pl, pl.AdjustRanges(plan, est, 8))
}

func TestAdjustRangesImprovesDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	improved := 0
	for trial := 0; trial < 30; trial++ {
		n := 12 + rng.Intn(12)
		p := 6 // low replication: r=2-4, where §4.8.2 says adjustment helps
		pl := mustPlacement(t, p, randomRing(n, 0, rng))
		speeds := map[ring.NodeID]float64{}
		for _, id := range pl.rings[0].IDs() {
			speeds[id] = 0.5 + rng.Float64()*4
		}
		est := speedEst(speeds)
		plan, err := pl.Schedule(p, est)
		if err != nil {
			t.Fatal(err)
		}
		adj := pl.AdjustRanges(plan, est, 8)
		if adj.Delay > plan.Delay+1e-9 {
			t.Fatalf("adjustment worsened delay: %v -> %v", plan.Delay, adj.Delay)
		}
		if adj.Delay < plan.Delay-1e-9 {
			improved++
		}
		checkPlan(t, pl, adj)
		if len(adj.Subs) != len(plan.Subs) {
			t.Fatal("range adjustment must not change the sub-query count")
		}
	}
	if improved == 0 {
		t.Error("range adjustment never improved any trial; expected it to help at low r")
	}
}

func TestSplitSlowestImprovesDelay(t *testing.T) {
	// With p = n every node (including the straggler) must serve a
	// sub-query; splitting the straggler's slice across its faster
	// replica neighbours is the only way to shed its load.
	pl := mustPlacement(t, 12, ring.NewEqual(12))
	speeds := map[ring.NodeID]float64{}
	for _, id := range pl.rings[0].IDs() {
		speeds[id] = 4
	}
	speeds[0] = 0.25 // the straggler
	est := speedEst(speeds)
	plan, err := pl.Schedule(12, est)
	if err != nil {
		t.Fatal(err)
	}
	split := pl.SplitSlowest(plan, est, 4)
	if split.Delay >= plan.Delay {
		t.Errorf("splitting did not improve: %v -> %v", plan.Delay, split.Delay)
	}
	checkPlan(t, pl, split)
	if len(split.Subs) <= len(plan.Subs) {
		t.Error("splitting should add sub-queries")
	}
}

func TestSplitRespectsMaxSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pl := mustPlacement(t, 3, randomRing(12, 0, rng))
	plan, _ := pl.Schedule(3, uniformEst)
	split := pl.SplitSlowest(plan, uniformEst, 0)
	if len(split.Subs) != len(plan.Subs) {
		t.Error("maxSplits=0 must be a no-op")
	}
}

func TestRepairPlanCoversFailedNode(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		n := 15 + rng.Intn(20)
		p := 3 + rng.Intn(3)
		pl := mustPlacement(t, p, randomRing(n, 0, rng))
		plan, err := pl.Schedule(p, uniformEst)
		if err != nil {
			t.Fatal(err)
		}
		// Fail the node serving the first sub-query.
		failedID := plan.Subs[0].Node
		failed := map[ring.NodeID]bool{failedID: true}
		repaired, err := repairPlan(pl, plan, failed, uniformEst, rng)
		if err != nil {
			// A node with a huge range cannot be bracketed; only accept
			// that explanation.
			arc, _, _ := pl.NodeRange(failedID)
			if arc.Length < (1/float64(p))*0.9 {
				t.Fatalf("trial %d: unexpected repair failure: %v", trial, err)
			}
			continue
		}
		if len(repaired.Subs) != len(plan.Subs)+1 {
			t.Fatalf("repair should add exactly one sub-query: %d -> %d", len(plan.Subs), len(repaired.Subs))
		}
		// No sub-query may touch the failed node.
		for _, s := range repaired.Subs {
			if s.Node == failedID {
				t.Fatal("repaired plan still targets the failed node")
			}
		}
		// Coverage: every object in the failed sub-query's arc is stored
		// on at least one replacement node that will match it.
		orig := plan.Subs[0]
		var reps []SubQuery
		for _, s := range repaired.Subs {
			if s.Lo == orig.Lo && s.Hi == orig.Hi && s.Node != orig.Node {
				reps = append(reps, s)
			}
		}
		if len(reps) != 2 {
			t.Fatalf("want 2 replacement subs, got %d", len(reps))
		}
		if rest := unread(t, pl, orig.Lo, orig.Hi, reps[0].Node, reps[1].Node); len(rest) > 0 {
			t.Fatalf("ids %v of the failed arc stored on neither replacement (nodes %d,%d)",
				rest, reps[0].Node, reps[1].Node)
		}
	}
}

func TestRepairPlanMultipleFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pl := mustPlacement(t, 4, randomRing(40, 0, rng))
	plan, _ := pl.Schedule(4, uniformEst)
	failed := map[ring.NodeID]bool{}
	for _, s := range plan.Subs[:2] {
		failed[s.Node] = true
	}
	repaired, err := repairPlan(pl, plan, failed, uniformEst, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range repaired.Subs {
		if failed[s.Node] {
			t.Fatal("repaired plan targets a failed node")
		}
	}
}

// repairPlan re-sends every sub-query of plan aimed at a failed node
// through Replace, avoiding every failed node, as the frontend's
// dispatcher re-places each such leg.
func repairPlan(pl *Placement, plan Plan, failed map[ring.NodeID]bool, est Estimator, rng *rand.Rand) (Plan, error) {
	out := plan
	out.Subs = nil
	for _, s := range plan.Subs {
		if !failed[s.Node] {
			out.Subs = append(out.Subs, s)
			continue
		}
		subs, err := pl.Replace(s, failed, est, rng)
		if err != nil {
			return Plan{}, err
		}
		out.Subs = append(out.Subs, subs...)
	}
	return out, nil
}

func TestStoredSet(t *testing.T) {
	pl := mustPlacement(t, 4, ring.NewEqual(8))
	// Node 2 owns [0.25, 0.375): it holds the ids of (0, 0.375].
	if got, want := held(t, pl, 2), store.ArcSpans(0, 0.375); !slices.Equal(got, want) {
		t.Errorf("node 2 holds %v, want %v", got, want)
	}
	// With p=1 every node stores everything.
	pl1 := mustPlacement(t, 1, ring.NewEqual(8))
	if got := held(t, pl1, 2); !slices.Equal(got, []store.Span{{First: 0, Last: math.MaxUint64}}) {
		t.Errorf("p=1: node 2 holds %v, want the whole ring", got)
	}
}

func BenchmarkScheduleAlg1(b *testing.B) {
	for _, n := range []int{100, 1000} {
		rng := rand.New(rand.NewSource(1))
		pl, _ := NewPlacement(n/10, randomRing(n, 0, rng))
		speeds := map[ring.NodeID]float64{}
		for _, id := range pl.rings[0].IDs() {
			speeds[id] = 0.5 + rng.Float64()*10
		}
		est := speedEst(speeds)
		b.Run(fmtInt("n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pl.Schedule(n/10, est); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScheduleStrawman(b *testing.B) {
	for _, n := range []int{100, 1000} {
		rng := rand.New(rand.NewSource(1))
		pl, _ := NewPlacement(n/10, randomRing(n, 0, rng))
		speeds := map[ring.NodeID]float64{}
		for _, id := range pl.rings[0].IDs() {
			speeds[id] = 0.5 + rng.Float64()*10
		}
		est := speedEst(speeds)
		b.Run(fmtInt("n", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pl.ScheduleStrawman(n/10, est); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func fmtInt(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestFullRingPlanIsExact: a pq = 1 sub-query is the full ring, Lo ==
// Hi exactly, wherever the plan starts. Lo computed as Hi - 1 rounds for
// most starts, and an arc one ulp long matches nothing: the query then
// returns no ids at all.
func TestFullRingPlanIsExact(t *testing.T) {
	pl := mustPlacement(t, 1, ring.NewEqual(3))
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		plan := pl.planAt(ring.Norm(rng.Float64()), 1, uniformEst)
		if s := plan.Subs[0]; s.Lo != s.Hi || s.Size() != 1 {
			t.Fatalf("start %v: sub-query (%v, %v] spans %v, want the full ring", plan.Start, s.Lo, s.Hi, s.Size())
		}
	}
	if plan, err := pl.Schedule(1, uniformEst); err != nil || plan.Subs[0].Size() != 1 {
		t.Fatalf("Schedule(1): %+v, %v; want one full-ring sub-query", plan, err)
	}
}

// FuzzPlanPartitionsIDs is the partition property of every plan the
// package makes, exactly in id space, over 1-3 random rings, a random p,
// pq from p to 3p and random node speeds: the id spans of a Schedule
// plan, and of the plan AdjustRanges and SplitSlowest make of it,
// partition the id ring, and every sub-query's node holds every id it
// reads. Replacing each sub-query of a random failed node keeps the
// partition over its distinct arcs, and the nodes sent a failed arc hold
// all of it.
func FuzzPlanPartitionsIDs(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3), uint8(0))
	f.Add(int64(2), uint8(1), uint8(4), uint8(1))
	f.Add(int64(3), uint8(2), uint8(2), uint8(2))
	f.Add(int64(4), uint8(0), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, rings, p, extra uint8) {
		rng := rand.New(rand.NewSource(seed))
		pp := 1 + int(p%6)
		var rs []*ring.Ring
		speeds := map[ring.NodeID]float64{}
		for k := 0; k <= int(rings%3); k++ {
			r := randomRing(2+rng.Intn(10), ring.NodeID(100*k), rng)
			for _, id := range r.IDs() {
				speeds[id] = 0.5 + 4*rng.Float64()
			}
			rs = append(rs, r)
		}
		pl := mustPlacement(t, pp, rs...)
		est := speedEst(speeds)
		plan, err := pl.Schedule(pp*(1+int(extra%3))+int(extra/3%2), est)
		if err != nil {
			t.Fatal(err)
		}
		checkPlan(t, pl, plan)
		checkPlan(t, pl, pl.AdjustRanges(plan, est, 8))
		checkPlan(t, pl, pl.SplitSlowest(plan, est, 4))

		failed := plan.Subs[rng.Intn(len(plan.Subs))].Node
		repaired, err := repairPlan(pl, plan, map[ring.NodeID]bool{failed: true}, est, rng)
		if err != nil {
			return // an unbracketable range; FuzzReplaceCoversArc holds when that may be
		}
		sent := map[[2]ring.Point][]ring.NodeID{}
		var arcs []SubQuery
		for _, s := range repaired.Subs {
			if s.Node == failed {
				t.Fatalf("repaired plan still targets node %d", failed)
			}
			key := [2]ring.Point{s.Lo, s.Hi}
			if sent[key] == nil {
				arcs = append(arcs, s)
			}
			sent[key] = append(sent[key], s.Node)
		}
		if err := partitionError(arcs); err != nil {
			t.Fatalf("repaired plan: %v", err)
		}
		for key, nodes := range sent {
			if rest := unread(t, pl, key[0], key[1], nodes...); len(rest) > 0 {
				t.Fatalf("ids %v of (%v,%v] held by none of nodes %v", rest, key[0], key[1], nodes)
			}
		}
	})
}
