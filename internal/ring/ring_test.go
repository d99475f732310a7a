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

func TestMatchSpanConvention(t *testing.T) {
	if MatchSpan(0.3, 0.3) != 1 {
		t.Error("lo == hi must denote the full circle")
	}
	if d := MatchSpan(0.25, 0.75); d != 0.5 {
		t.Errorf("MatchSpan(0.25,0.75) = %v", d)
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

// TestRingSetStartTwoNodes: on a ring of two nodes the predecessor is
// the successor, so a start may move anywhere but onto the other node's.
func TestRingSetStartTwoNodes(t *testing.T) {
	r := NewEqual(2) // node 0 at 0, node 1 at 0.5
	for _, start := range []Point{0.6, 0.4, 0.9, 0.1} {
		if err := r.SetStart(1, start); err != nil {
			t.Fatalf("SetStart(1, %v): %v", start, err)
		}
		a, _ := r.Range(0)
		if math.Abs(a.Length-float64(start)) > 1e-12 || r.Owner(start) != 1 {
			t.Fatalf("after SetStart(1, %v) node 0 spans %v and %v owns the start", start, a, r.Owner(start))
		}
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.SetStart(1, 0); err == nil {
		t.Error("SetStart onto the other node's start should fail")
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
