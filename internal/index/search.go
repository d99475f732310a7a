package index

import (
	"context"
	"fmt"
	"sort"
)

// Mode selects how a query's terms combine.
type Mode uint8

const (
	// ModeAnd matches docs containing every term.
	ModeAnd Mode = iota
	// ModeOr matches docs containing any term.
	ModeOr
	// ModeThreshold matches docs containing at least MinMatch terms.
	ModeThreshold
)

// Query is a plaintext index query. Terms are matched exactly against
// the indexed term strings; whatever analyzer built the segment must
// produce the query's terms.
type Query struct {
	Terms []string
	Mode  Mode
	// MinMatch is the T of a ModeThreshold query: a doc matches when it
	// contains at least MinMatch of Terms (a repeated term counts each
	// time). Values below 1 mean 1; a value above len(Terms) matches
	// nothing. The other modes ignore it.
	MinMatch int
	// Limit caps the result to the numerically-smallest Limit record
	// ids inside the searched arc (top-k). 0 = unlimited.
	Limit int
}

// Validate rejects structurally bad queries before any posting I/O.
func (q Query) Validate() error {
	if len(q.Terms) == 0 {
		return fmt.Errorf("index: query has no terms")
	}
	if q.Mode > ModeThreshold {
		return fmt.Errorf("index: unknown query mode %d", q.Mode)
	}
	return nil
}

// SearchArc runs the query over every segment, restricted to record
// ids in the half-open id arc (lo, hi] (wrapping when lo >= hi; full
// set when full is true — mirroring ring.MatchSpan's lo == hi
// convention, which id truncation cannot express). It returns the
// matching record ids ascending (at most Limit of the smallest when
// Limit > 0) and the number of posting entries examined inside the arc
// (see searchWindows) — the scanned-work analogue of the PPS scan
// path's record count.
func (ix *Index) SearchArc(ctx context.Context, q Query, lo, hi uint64, full bool) ([]uint64, int, error) {
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	ix.mu.RLock()
	segs := ix.segs
	ix.mu.RUnlock()

	var (
		ids     []uint64
		scanned int
	)
	for _, seg := range segs {
		if err := ctx.Err(); err != nil {
			return nil, scanned, err
		}
		segIDs, n, err := ix.searchSegment(ctx, seg, q, lo, hi, full)
		scanned += n
		if err != nil {
			return nil, scanned, err
		}
		ids = append(ids, segIDs...)
	}
	if len(segs) > 1 {
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		// Segments normally partition the corpus, but overlapping pushes
		// are legal (idempotent replication); drop duplicates like the
		// frontend's merge does.
		w := 0
		for i, id := range ids {
			if i > 0 && ids[w-1] == id {
				continue
			}
			ids[w] = id
			w++
		}
		ids = ids[:w]
	}
	if q.Limit > 0 && len(ids) > q.Limit {
		ids = ids[:q.Limit]
	}
	return ids, scanned, nil
}

// searchSegment evaluates the query in one segment. The ordinal windows
// are computed first so a segment with no documents in the arc is
// skipped before any posting list is touched, and the postings are then
// evaluated inside those windows only: an arc-partitioned node holding a
// whole-corpus segment file pays for its arc, not for the corpus.
func (ix *Index) searchSegment(ctx context.Context, seg *Segment, q Query, lo, hi uint64, full bool) ([]uint64, int, error) {
	var windows [][2]int
	switch {
	case full:
		windows = [][2]int{{0, seg.Docs()}}
	case lo < hi:
		a, b := seg.ordRange(lo, hi)
		windows = [][2]int{{a, b}}
	default:
		// Wrapping arc (lo, max] ∪ [0, hi]: the [0, hi] window first —
		// its ids are numerically smaller, so a Limit cut keeps the
		// smallest ids in the arc.
		a, _ := seg.ordRange(lo, ^uint64(0))
		_, b := seg.ordRange(0, hi)
		windows = [][2]int{{0, b}, {a, seg.Docs()}}
		if hi == ^uint64(0) || b > a {
			// Degenerate split (possible only with adversarial bounds,
			// not ring-derived ones): fall back to the full window
			// rather than double-count overlapping ranges.
			windows = [][2]int{{0, seg.Docs()}}
		}
	}
	live := false
	for _, w := range windows {
		if w[0] < w[1] {
			live = true
		}
	}
	if !live {
		return nil, 0, nil
	}

	need := 1
	switch q.Mode {
	case ModeAnd:
		need = len(q.Terms)
	case ModeThreshold:
		need = q.MinMatch
	}
	if need > len(q.Terms) {
		return nil, 0, nil
	}
	postings := make([]*Bitmap, 0, len(q.Terms))
	for _, term := range q.Terms {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		bm, err := ix.cache.Get(seg, term)
		if err != nil {
			return nil, 0, err
		}
		if bm == nil || bm.Cardinality() == 0 {
			if q.Mode == ModeAnd {
				// Early termination: one empty conjunct empties the result
				// before the remaining (possibly disk-resident) terms load.
				return nil, 0, nil
			}
			continue
		}
		postings = append(postings, bm)
	}

	ids, scanned, err := searchWindows(ctx, postings, need, windows, q.Limit)
	for i, ord := range ids {
		ids[i] = seg.docIDs[ord]
	}
	return ids, scanned, err
}
