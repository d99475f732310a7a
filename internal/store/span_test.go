package store

import (
	"math"
	"math/rand"
	"testing"

	"roar/internal/pps"
	"roar/internal/ring"
)

// inSpans reports whether id lies in one of spans.
func inSpans(spans []Span, id uint64) bool {
	for _, sp := range spans {
		if sp.First <= id && id <= sp.Last {
			return true
		}
	}
	return false
}

// checkMinus holds Minus(a, b) to point sampling: the ids it holds are
// exactly those of a that b lacks, probed at every span end, one either
// side of it, the ring's ends and random ids; its spans are disjoint and
// none is empty.
func checkMinus(t *testing.T, rng *rand.Rand, a, b []Span) {
	t.Helper()
	got := Minus(a, b)
	probes := []uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64}
	for _, set := range [][]Span{a, b, got} {
		for _, sp := range set {
			probes = append(probes, sp.First-1, sp.First, sp.First+1, sp.Last-1, sp.Last, sp.Last+1)
		}
	}
	for range 64 {
		probes = append(probes, rng.Uint64())
	}
	for _, id := range probes {
		if want := inSpans(a, id) && !inSpans(b, id); inSpans(got, id) != want {
			t.Fatalf("%v minus %v = %v: id %#x in result %v, want %v", a, b, got, id, !want, want)
		}
	}
	for i, x := range got {
		if x.First > x.Last {
			t.Fatalf("%v minus %v = %v: span %d is empty", a, b, got, i)
		}
		for _, y := range got[i+1:] {
			if x.First <= y.Last && y.First <= x.Last {
				t.Fatalf("%v minus %v = %v: spans overlap", a, b, got)
			}
		}
	}
}

// TestArcMinus: the identifiers one arc holds and another lacks, over
// wrap-around arcs, full arcs, arcs with equal ends, a full arc minus an
// arc, and random arcs; an arc minus itself is always empty, whatever
// floats made it.
func TestArcMinus(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	arcs := [][2]ring.Point{
		{0, 0},            // full: lo == hi
		{0.3, 0.3},        // full, away from zero
		{0.8, 0.2},        // wraps zero
		{0.2, 0.8},        // plain
		{0.2, 0.5},        // shares its start with the plain one
		{0.5, 0.8},        // shares its end with the plain one
		{0.9, 0.1},        // wraps, inside the first wrap
		{0, 0.5},          // starts at zero
		{0.5, 0},          // ends at zero
		{1e-30, 2e-30},    // one id: holds none
		{0.25, 0.2500001}, // a sliver
	}
	for range 40 {
		arcs = append(arcs, [2]ring.Point{ring.Point(rng.Float64()), ring.Point(rng.Float64())})
	}
	for _, x := range arcs {
		a := ArcSpans(x[0], x[1])
		if got := Minus(a, a); len(got) != 0 {
			t.Errorf("(%v, %v] minus itself = %v, want nothing", x[0], x[1], got)
		}
		for _, y := range arcs {
			checkMinus(t, rng, a, ArcSpans(y[0], y[1]))
		}
	}
	// A full arc minus an arc is its complement, in one span or two.
	if got := Minus(ArcSpans(0, 0), ArcSpans(0.25, 0.75)); len(got) != 2 || got[0].First != 0 || got[1].Last != math.MaxUint64 {
		t.Errorf("full minus (0.25, 0.75] = %v, want [0, IDOf(0.25)] and (IDOf(0.75), max]", got)
	}
	if got := Minus(ArcSpans(0, 0), ArcSpans(0.75, 0.25)); len(got) != 1 || got[0] != (Span{IDOf(0.25) + 1, IDOf(0.75)}) {
		t.Errorf("full minus (0.75, 0.25] = %v, want (IDOf(0.25), IDOf(0.75)]", got)
	}
}

// FuzzArcMinus: Minus of two arcs' ArcSpans against point sampling, for
// any pair of arcs (a bound outside [0, 1) is normalised first).
func FuzzArcMinus(f *testing.F) {
	f.Add(0.0, 0.0, 0.25, 0.75, int64(1))
	f.Add(0.8, 0.2, 0.9, 0.1, int64(2))
	f.Add(0.2, 0.8, 0.2, 0.8, int64(3))
	f.Add(0.5, 0.0, 0.0, 0.5, int64(4))
	f.Fuzz(func(t *testing.T, alo, ahi, blo, bhi float64, seed int64) {
		for _, x := range []float64{alo, ahi, blo, bhi} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return
			}
		}
		a := ArcSpans(ring.Norm(alo), ring.Norm(ahi))
		b := ArcSpans(ring.Norm(blo), ring.Norm(bhi))
		checkMinus(t, rand.New(rand.NewSource(seed)), a, b)
	})
}

// TestStoredSpans: a node holds the ids of (start-1/p, end], the whole
// ring once its range and 1/p wrap it, and RetainStored keeps exactly
// the records those spans hold, the ids on and beside both bounds
// included, whether the spans wrap zero or not.
func TestStoredSpans(t *testing.T) {
	if got := StoredSpans(ring.NewArc(0.25, 0.125), 4); len(got) != 1 || got[0] != (Span{1, IDOf(0.375)}) {
		t.Errorf("[0.25, 0.375) at p=4 holds %v, want (0, IDOf(0.375)]", got)
	}
	if got := StoredSpans(ring.NewArc(0.125, 0.25), 4); len(got) != 2 || got[0].First != IDOf(0.875)+1 || got[1] != (Span{0, IDOf(0.375)}) {
		t.Errorf("[0.125, 0.375) at p=4 holds %v, want (IDOf(0.875), max] and [0, IDOf(0.375)]", got)
	}
	for _, a := range []ring.Arc{ring.NewArc(0.3, 0.5), ring.NewArc(0.9, 0.75), ring.FullArc()} {
		if got := StoredSpans(a, 2); len(got) != 1 || got[0] != (Span{0, math.MaxUint64}) {
			t.Errorf("%v at p=2 holds %v, want the whole ring", a, got)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		a := ring.NewArc(ring.Norm(rng.Float64()), rng.Float64()/2)
		p := 2 + rng.Intn(6)
		spans := StoredSpans(a, p)
		s := New()
		var ids []uint64
		for _, x := range []ring.Point{a.Start, a.End(), a.Start.Add(-1 / float64(p)), 0} {
			for d := uint64(0); d < 4; d++ {
				ids = append(ids, IDOf(x)+d, IDOf(x)-d)
			}
		}
		for range 64 {
			ids = append(ids, rng.Uint64())
		}
		for _, id := range ids {
			s.Insert(pps.Encoded{ID: id})
		}
		n := s.Len()
		dropped := s.RetainStored(a, p)
		if s.Len()+dropped != n {
			t.Fatalf("dropped %d + kept %d != %d", dropped, s.Len(), n)
		}
		for _, id := range ids {
			if _, ok := s.Get(id); ok != inSpans(spans, id) {
				t.Fatalf("%v at p=%d: id %#x kept %v, want %v (spans %v)", a, p, id, ok, !ok, spans)
			}
		}
		checkScheduleInvariants(t, s, "after RetainStored")
	}
}
