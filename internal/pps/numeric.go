package pps

import (
	"fmt"
	"math"
	"sort"
)

// Inequality implements the novel numeric-matching construction of
// §5.5.3 for one-sided tests (N > lb, N < ub). A set of reference
// points is agreed at key generation; each metadata value is encoded as
// the set of keywords { ">p_i" or "<p_i" for every reference point },
// and a query is approximated by the nearest reference point. Keyword
// matching is delegated to the Bloom scheme.
type Inequality struct {
	bloom  *Bloom
	points []float64 // sorted reference points
}

// ExponentialPoints builds the exponentially spaced reference set the
// paper suggests for 4-byte positive integers: 1..10, 20..100, 200..1000,
// ..., up to max (≈100 points for max = 1e9). Precision follows query
// sensitivity: coarser for bigger values.
func ExponentialPoints(max float64) []float64 {
	var pts []float64
	for base := 1.0; base < max; base *= 10 {
		for k := 1; k <= 9; k++ {
			v := base * float64(k)
			if v > max {
				break
			}
			pts = append(pts, v)
		}
	}
	pts = append(pts, max)
	sort.Float64s(pts)
	// Dedup (base*k can revisit values like 10 = 1*10? no, but max may
	// duplicate the last point).
	out := pts[:0]
	for i, v := range pts {
		if i == 0 || v != pts[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// LinearPoints builds l evenly spaced points over [lo, hi].
func LinearPoints(lo, hi float64, l int) []float64 {
	if l < 2 {
		return []float64{lo, hi}
	}
	pts := make([]float64, l)
	for i := range pts {
		pts[i] = lo + (hi-lo)*float64(i)/float64(l-1)
	}
	return pts
}

// NewInequality builds the scheme over the given reference points. The
// Bloom filter is sized for 2·l words (one "<" and one ">" word per
// point).
func NewInequality(k MasterKey, points []float64) (*Inequality, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("pps: inequality needs reference points")
	}
	pts := append([]float64(nil), points...)
	sort.Float64s(pts)
	cfg := DefaultBloomConfig()
	cfg.MaxWords = 2 * len(pts)
	return &Inequality{bloom: NewBloom(k, cfg), points: pts}, nil
}

// IneqOp is the comparison direction of an inequality query.
type IneqOp int

// Inequality operators.
const (
	Greater IneqOp = iota // N > value
	Less                  // N < value
)

func (op IneqOp) String() string {
	if op == Greater {
		return ">"
	}
	return "<"
}

// IneqQuery is an encrypted inequality test.
type IneqQuery struct {
	BQ BloomQuery
	// ApproxPoint is the reference point actually used; exposed so
	// callers can report approximation error. It leaks nothing beyond
	// what the trapdoor already determines.
	ApproxPoint float64
}

// EncryptQuery approximates "N op value" by the nearest reference point
// and returns the corresponding keyword trapdoor.
func (s *Inequality) EncryptQuery(op IneqOp, value float64) IneqQuery {
	p := s.nearest(value)
	return IneqQuery{BQ: s.bloom.EncryptQuery(fmt.Sprintf("%s%g", op, p)), ApproxPoint: p}
}

func (s *Inequality) nearest(v float64) float64 {
	i := sort.SearchFloat64s(s.points, v)
	if i == 0 {
		return s.points[0]
	}
	if i == len(s.points) {
		return s.points[len(s.points)-1]
	}
	if v-s.points[i-1] <= s.points[i]-v {
		return s.points[i-1]
	}
	return s.points[i]
}

// EncryptMetadata encodes a numeric value as its full comparison
// signature against every reference point.
func (s *Inequality) EncryptMetadata(value float64) (BloomMetadata, error) {
	words := make([]string, 0, 2*len(s.points))
	for _, p := range s.points {
		if value > p {
			words = append(words, fmt.Sprintf(">%g", p))
		} else if value < p {
			words = append(words, fmt.Sprintf("<%g", p))
		}
		// value == p matches neither strict inequality, as in the paper.
	}
	return s.bloom.EncryptMetadata(words)
}

// Match runs the inequality test on the server.
func (s *Inequality) Match(q IneqQuery, m BloomMetadata) bool {
	return s.bloom.MatchBloom(q.BQ, m)
}

// Interval is one cell of a range partition: [Lo, Hi).
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether v lies in [Lo, Hi).
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v < iv.Hi }

// Partition is a set of intervals covering the numeric domain.
type Partition []Interval

// UniformPartition divides [lo, hi) into cells of the given width,
// starting at lo+offset (offsets give the "different starting offsets"
// of §5.5.3's refined construction).
func UniformPartition(lo, hi, width, offset float64) Partition {
	var p Partition
	start := lo + offset - width
	for s := start; s < hi; s += width {
		cellLo := math.Max(s, lo)
		cellHi := math.Min(s+width, hi)
		if cellHi > cellLo {
			p = append(p, Interval{Lo: cellLo, Hi: cellHi})
		}
	}
	return p
}

// Range implements the range-query construction of §5.5.3: several
// partitions of the domain with different cell sizes and offsets; a
// metadata value lists every cell (across all partitions) containing it,
// and a query is approximated by the single best-fitting cell.
type Range struct {
	bloom      *Bloom
	partitions []Partition
}

// NewRange builds the scheme over m partitions.
func NewRange(k MasterKey, partitions []Partition) (*Range, error) {
	if len(partitions) == 0 {
		return nil, fmt.Errorf("pps: range needs at least one partition")
	}
	cfg := DefaultBloomConfig()
	cfg.MaxWords = len(partitions) // one cell word per partition
	return &Range{bloom: NewBloom(k, cfg), partitions: partitions}, nil
}

// DefaultRangePartitions builds a practical multi-resolution partition
// set for [lo, hi): levels cell widths of (hi-lo)/2^k for k = 1..levels,
// each at two offsets (0 and half a cell), echoing §5.5.3's refinement.
func DefaultRangePartitions(lo, hi float64, levels int) []Partition {
	var ps []Partition
	for k := 1; k <= levels; k++ {
		w := (hi - lo) / math.Pow(2, float64(k))
		ps = append(ps, UniformPartition(lo, hi, w, 0))
		ps = append(ps, UniformPartition(lo, hi, w, w/2))
	}
	return ps
}

// RangeQuery is an encrypted range test.
type RangeQuery struct {
	BQ BloomQuery
	// Approx is the cell used to approximate [Lo, Hi); exposed for
	// error reporting.
	Approx Interval
}

// EncryptQuery approximates [lb, ub) with the best cell across all
// partitions — the one minimising |lb-a| + |ub-b| (§5.5.3).
func (s *Range) EncryptQuery(lb, ub float64) RangeQuery {
	bestX, bestY := 0, 0
	bestErr := math.Inf(1)
	for x, part := range s.partitions {
		for y, cell := range part {
			e := math.Abs(lb-cell.Lo) + math.Abs(ub-cell.Hi)
			if e < bestErr {
				bestErr, bestX, bestY = e, x, y
			}
		}
	}
	cell := s.partitions[bestX][bestY]
	return RangeQuery{
		BQ:     s.bloom.EncryptQuery(cellWord(bestX, bestY)),
		Approx: cell,
	}
}

// EncryptMetadata lists every cell containing the value.
func (s *Range) EncryptMetadata(value float64) (BloomMetadata, error) {
	var words []string
	for x, part := range s.partitions {
		for y, cell := range part {
			if cell.Contains(value) {
				words = append(words, cellWord(x, y))
			}
		}
	}
	return s.bloom.EncryptMetadata(words)
}

// Match runs the range test on the server.
func (s *Range) Match(q RangeQuery, m BloomMetadata) bool {
	return s.bloom.MatchBloom(q.BQ, m)
}

func cellWord(x, y int) string { return fmt.Sprintf("%d,%d", x, y) }
