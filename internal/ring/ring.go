// Package ring implements the continuous circular identifier space that
// underlies ROAR (Rendezvous On A Ring).
//
// The identifier space is the half-open unit interval [0, 1) with
// wrap-around arithmetic. Three geometric notions are provided:
//
//   - Point: a position on the ring.
//   - Arc: a half-open, possibly wrapping interval [Start, Start+Length).
//   - Ring: an ordered set of node ranges that partition [0, 1).
//
// Objects are placed at uniformly random points; an object at id x with
// partitioning level p is replicated over the arc [x, x+1/p). A node owns
// a contiguous arc, and stores every object whose replication arc
// intersects the node's arc. Queries probe p equally spaced points; the
// arc geometry guarantees each probe point lands inside every replication
// arc that "covers" it, which is what makes rendezvous work. Which
// identifiers a node holds, which a sub-query reads, and so whether a
// node can serve a sub-query (core.Placement.CanServe), are decided
// exactly in identifier space (store.StoredSpans and store.ArcSpans);
// this package supplies the points and ranges they start from.
package ring

import (
	"fmt"
	"math"
)

// Point is a position on the unit ring. Valid points lie in [0, 1);
// constructors normalise arbitrary float64 values into that range.
type Point float64

// Norm maps an arbitrary float onto [0, 1) with wrap-around.
func Norm(x float64) Point {
	f := math.Mod(x, 1)
	if f < 0 {
		f += 1
	}
	// math.Mod can return exactly 1 - eps rounding to 1 after +=; clamp.
	if f >= 1 {
		f = 0
	}
	return Point(f)
}

// Add returns the point d further clockwise (d may be negative).
func (p Point) Add(d float64) Point { return Norm(float64(p) + d) }

// DistCW returns the clockwise distance from p to q, in [0, 1).
func (p Point) DistCW(q Point) float64 {
	d := float64(q) - float64(p)
	if d < 0 {
		d += 1
	}
	return d
}

// Arc is a half-open interval [Start, Start+Length) on the ring.
// Length must be in [0, 1]. Length == 1 denotes the full ring.
type Arc struct {
	Start  Point
	Length float64
}

// FullArc covers the entire ring.
func FullArc() Arc { return Arc{Start: 0, Length: 1} }

// NewArc builds an arc from a start point and length, clamping length
// into [0, 1].
func NewArc(start Point, length float64) Arc {
	if length < 0 {
		length = 0
	}
	if length > 1 {
		length = 1
	}
	return Arc{Start: start, Length: length}
}

// ArcBetween returns the arc that starts at a and extends clockwise to b.
// If a == b the arc is empty (use FullArc for the whole ring).
func ArcBetween(a, b Point) Arc {
	return Arc{Start: a, Length: a.DistCW(b)}
}

// End returns the point just past the arc (exclusive bound).
func (a Arc) End() Point { return a.Start.Add(a.Length) }

// IsFull reports whether the arc covers the whole ring.
func (a Arc) IsFull() bool { return a.Length >= 1 }

// Contains reports whether point q lies inside the half-open arc.
func (a Arc) Contains(q Point) bool {
	if a.IsFull() {
		return true
	}
	return a.Start.DistCW(q) < a.Length
}

func (a Arc) String() string {
	return fmt.Sprintf("[%.6f,%.6f)", float64(a.Start), float64(a.End()))
}

// MatchSpan returns the length of the half-open match arc (lo, hi].
// By convention lo == hi denotes the FULL circle (the pq = 1 case, where
// one sub-query covers everything), not the empty arc: match arcs arise
// only from partitioning the ring, and a zero-length partition does not
// occur.
func MatchSpan(lo, hi Point) float64 {
	if lo == hi {
		return 1
	}
	return lo.DistCW(hi)
}
