package ring

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNorm(t *testing.T) {
	cases := []struct {
		in   float64
		want Point
	}{
		{0, 0}, {0.5, 0.5}, {1, 0}, {1.25, 0.25}, {-0.25, 0.75}, {2.5, 0.5}, {-1, 0},
	}
	for _, c := range cases {
		if got := Norm(c.in); math.Abs(float64(got-c.want)) > 1e-12 {
			t.Errorf("Norm(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormAlwaysInRange(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		p := Norm(x)
		return p >= 0 && p < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistCW(t *testing.T) {
	if d := Point(0.2).DistCW(0.7); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("DistCW(0.2,0.7) = %v, want 0.5", d)
	}
	if d := Point(0.7).DistCW(0.2); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("DistCW(0.7,0.2) = %v, want 0.5", d)
	}
	if d := Point(0.3).DistCW(0.3); d != 0 {
		t.Errorf("DistCW(x,x) = %v, want 0", d)
	}
}

func TestArcContains(t *testing.T) {
	// Binary-representable bounds so half-open boundary checks are exact.
	a := NewArc(0.875, 0.25) // [0.875, 0.125) wrapping
	for _, p := range []Point{0.875, 0.9375, 0, 0.0625} {
		if !a.Contains(p) {
			t.Errorf("%v should contain %v", a, p)
		}
	}
	for _, p := range []Point{0.125, 0.5, 0.874} {
		if a.Contains(p) {
			t.Errorf("%v should not contain %v", a, p)
		}
	}
	if !FullArc().Contains(0.123) {
		t.Error("full arc must contain everything")
	}
	if NewArc(0.5, 0).Contains(0.5) {
		t.Error("empty arc contains nothing")
	}
}

func TestArcIntersects(t *testing.T) {
	cases := []struct {
		a, b Arc
		want bool
	}{
		{NewArc(0.125, 0.25), NewArc(0.25, 0.25), true},
		{NewArc(0.125, 0.25), NewArc(0.375, 0.25), false},   // touch at 0.375, half-open
		{NewArc(0.875, 0.25), NewArc(0.0625, 0.0625), true}, // wrap
		{NewArc(0.875, 0.25), NewArc(0.1875, 0.0625), false},
		{FullArc(), NewArc(0.4, 0.001), true},
		{NewArc(0.4, 0), NewArc(0.4, 0.1), false}, // empty
	}
	for _, c := range cases {
		if got := c.a.Intersects(c.b); got != c.want {
			t.Errorf("%v.Intersects(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Intersects(c.a); got != c.want {
			t.Errorf("%v.Intersects(%v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestArcContainsArc(t *testing.T) {
	outer := NewArc(0.8, 0.4) // [0.8, 0.2)
	if !outer.ContainsArc(NewArc(0.9, 0.2)) {
		t.Error("wrap containment failed")
	}
	if outer.ContainsArc(NewArc(0.9, 0.35)) {
		t.Error("should not contain arc overhanging the end")
	}
	if !FullArc().ContainsArc(outer) {
		t.Error("full contains all")
	}
}

// TestSubQueryTiling is the core rendezvous invariant: for any pq and any
// object/query placement, exactly one of the pq probe points matches the
// object.
func TestSubQueryTiling(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		pq := 1 + rng.Intn(64)
		obj := Norm(rng.Float64())
		q := Norm(rng.Float64())
		matches := 0
		for _, pt := range ProbePoints(q, pq) {
			if SubQueryMatches(obj, pt, pq) {
				matches++
			}
		}
		if matches != 1 {
			t.Fatalf("pq=%d obj=%v q=%v: %d probe points matched, want exactly 1", pq, obj, q, matches)
		}
	}
}

// TestReplicationCoversProbe verifies that when pq >= p, the object's
// replication arc always contains the probe point that is responsible
// for matching it (so the responsible server actually stores the object).
func TestReplicationCoversProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		p := 1 + rng.Intn(32)
		pq := p + rng.Intn(32)
		obj := Norm(rng.Float64())
		q := Norm(rng.Float64())
		rep := ReplicationArc(obj, p)
		for _, pt := range ProbePoints(q, pq) {
			if SubQueryMatches(obj, pt, pq) {
				// Probe point pt must lie within [obj, obj+1/p).
				// Boundary case d == 1/pq <= 1/p is within the closed
				// extent of the replication arc; allow equality.
				d := obj.DistCW(pt)
				if d > rep.Length+1e-12 {
					t.Fatalf("p=%d pq=%d obj=%v probe=%v: probe outside replication arc (d=%v > %v)",
						p, pq, obj, pt, d, rep.Length)
				}
			}
		}
	}
}

func TestMatchSpanConvention(t *testing.T) {
	if MatchSpan(0.3, 0.3) != 1 {
		t.Error("lo == hi must denote the full circle")
	}
	if d := MatchSpan(0.25, 0.75); d != 0.5 {
		t.Errorf("MatchSpan(0.25,0.75) = %v", d)
	}
	// Full-arc matching includes every point, even lo itself.
	for _, obj := range []Point{0, 0.3, 0.99} {
		if !InMatchArc(obj, 0.3, 0.3) {
			t.Errorf("full arc must match %v", obj)
		}
	}
	if !InMatchArc(0.5, 0.25, 0.75) {
		t.Error("interior point should match")
	}
	if InMatchArc(0.25, 0.25, 0.75) {
		t.Error("lo itself is excluded from a partial arc")
	}
	if !InMatchArc(0.75, 0.25, 0.75) {
		t.Error("hi itself is included")
	}
	if InMatchArc(0.1, 0.25, 0.75) {
		t.Error("outside point must not match")
	}
}

func TestRingInsertRemove(t *testing.T) {
	r := New()
	if r.Owner(0.5) != InvalidNode {
		t.Error("empty ring should have no owner")
	}
	if err := r.Insert(1, 0.0); err != nil {
		t.Fatal(err)
	}
	if got := r.Owner(0.99); got != 1 {
		t.Errorf("single node owns everything, got %v", got)
	}
	if err := r.Insert(2, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(1, 0.25); err == nil {
		t.Error("duplicate insert should fail")
	}
	if got := r.Owner(0.3); got != 1 {
		t.Errorf("Owner(0.3) = %v, want 1", got)
	}
	if got := r.Owner(0.7); got != 2 {
		t.Errorf("Owner(0.7) = %v, want 2", got)
	}
	a, err := r.Range(2)
	if err != nil || math.Abs(a.Length-0.5) > 1e-12 {
		t.Errorf("Range(2) = %v, %v", a, err)
	}
	if err := r.Remove(2); err != nil {
		t.Fatal(err)
	}
	if got := r.Owner(0.7); got != 1 {
		t.Errorf("after removal Owner(0.7) = %v, want 1", got)
	}
	if err := r.Remove(2); err == nil {
		t.Error("removing absent node should fail")
	}
	if err := r.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRingNeighbours(t *testing.T) {
	r := NewEqual(4) // nodes 0..3 at 0, .25, .5, .75
	succ, err := r.Successor(3)
	if err != nil || succ != 0 {
		t.Errorf("Successor(3) = %v, %v; want 0", succ, err)
	}
	pred, err := r.Predecessor(0)
	if err != nil || pred != 3 {
		t.Errorf("Predecessor(0) = %v, %v; want 3", pred, err)
	}
}

func TestRingHolders(t *testing.T) {
	r := NewEqual(8)
	// Arc [0.1, 0.35) intersects node 0 [0,.125), 1 [.125,.25), 2 [.25,.375).
	got := r.AppendHolders(nil, NewArc(0.1, 0.25))
	want := []NodeID{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Holders = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Holders = %v, want %v", got, want)
		}
	}
	if got := r.AppendHolders(nil, FullArc()); len(got) != 8 {
		t.Errorf("full arc holders = %d nodes, want 8", len(got))
	}
}

func TestRingSetStart(t *testing.T) {
	r := NewEqual(4)
	// Grow node 1 into node 0 by moving its start from 0.25 to 0.2.
	if err := r.SetStart(1, 0.2); err != nil {
		t.Fatal(err)
	}
	if got := r.Owner(0.22); got != 1 {
		t.Errorf("Owner(0.22) = %v, want 1", got)
	}
	a, _ := r.Range(0)
	if math.Abs(a.Length-0.2) > 1e-12 {
		t.Errorf("node 0 range = %v, want length 0.2", a)
	}
	// Moving past the predecessor must fail.
	if err := r.SetStart(1, 0.9); err == nil {
		t.Error("SetStart beyond predecessor should fail")
	}
	if err := r.Validate(); err != nil {
		t.Error(err)
	}
}

// TestRingRandomOps is a property test: after arbitrary interleavings of
// insert/remove/move, the ring still satisfies its invariants and every
// point has exactly one owner.
func TestRingRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	r := New()
	next := NodeID(0)
	for op := 0; op < 3000; op++ {
		switch {
		case r.Len() == 0 || rng.Float64() < 0.4:
			if err := r.Insert(next, Norm(rng.Float64())); err == nil {
				next++
			}
		case rng.Float64() < 0.5 && r.Len() > 1:
			ids := r.IDs()
			_ = r.Remove(ids[rng.Intn(len(ids))])
		default:
			ids := r.IDs()
			id := ids[rng.Intn(len(ids))]
			_ = r.SetStart(id, Norm(rng.Float64())) // may legitimately fail
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	// Ownership is total and consistent with Range.
	for i := 0; i < 200; i++ {
		q := Norm(rng.Float64())
		id := r.Owner(q)
		if id == InvalidNode {
			t.Fatalf("no owner for %v", q)
		}
		a, err := r.Range(id)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Contains(q) && !a.IsFull() {
			t.Fatalf("owner %d of %v has range %v not containing it", id, q, a)
		}
	}
}

// TestHoldersMatchReplication: for random rings and objects, the holder
// set computed from the replication arc must include the owner of every
// probe point that is responsible for the object.
func TestHoldersMatchReplication(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(30)
		r := NewEqual(n)
		p := 1 + rng.Intn(n)
		obj := Norm(rng.Float64())
		holders := r.AppendHolders(nil, ReplicationArc(obj, p))
		holderSet := map[NodeID]bool{}
		for _, h := range holders {
			holderSet[h] = true
		}
		q := Norm(rng.Float64())
		for _, pt := range ProbePoints(q, p) {
			if SubQueryMatches(obj, pt, p) {
				owner := r.Owner(pt)
				if !holderSet[owner] {
					t.Fatalf("n=%d p=%d obj=%v probe=%v owner=%d not in holders %v",
						n, p, obj, pt, owner, holders)
				}
			}
		}
	}
}

func BenchmarkOwner(b *testing.B) {
	r := NewEqual(1000)
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 1024)
	for i := range pts {
		pts[i] = Norm(rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Owner(pts[i%len(pts)])
	}
}

func BenchmarkHolders(b *testing.B) {
	r := NewEqual(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.AppendHolders(nil, NewArc(Norm(float64(i)*0.001), 0.02))
	}
}
