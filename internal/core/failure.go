package core

import (
	"fmt"
	"math/rand"

	"roar/internal/ring"
)

// This file holds the §4.4 fallback on a failed node's own ring: when
// no other ring can serve a sub-query aimed at it (Replace, hedge.go),
// the sub-query is split in two and sent to nodes before and after the
// failed one, no more than 1/p - δ apart, so every object the failed
// node would have matched is matched by one of them. Each keeps the
// original match arc (the "original query ID" of step 4); a bracket
// pair's stored sets overlap minimally, producing only a few duplicate
// matches, which the frontend deduplicates by object id.

// DeltaFraction is the uncertainty margin δ expressed as a fraction of
// 1/p: δ = DeltaFraction/p. It must be large enough that 1/p - δ is
// below 1/p_old for all recently used partitioning levels (§4.4).
const DeltaFraction = 0.02

// bracket is the §4.4 pair for s on its node's ring. If a node of the
// pair is s.Node or avoided, a new random placement is drawn (the
// paper's "repeat from step 2"), up to a bounded number of retries.
func (pl *Placement) bracket(s SubQuery, avoid map[ring.NodeID]bool, est Estimator, rng *rand.Rand) ([]SubQuery, error) {
	arc, rk, err := pl.NodeRange(s.Node)
	if err != nil {
		return nil, fmt.Errorf("core: node %d: %w", s.Node, err)
	}
	r := pl.rings[rk]
	repl := 1 / float64(pl.p)
	delta := DeltaFraction * repl
	span := repl - delta
	hi := arc.End()
	// idq1 is drawn from (hi - span, lo): the window of starting points
	// whose pair (idq1, idq1+span) straddles the node's range. Its width
	// is span - |range|; computing it as a clockwise ring distance would
	// silently wrap to ~1 when the range is wider than the span, yielding
	// pairs that do NOT bracket the node and lose matches.
	window := span - arc.Length
	if window <= 0 {
		return nil, fmt.Errorf("core: node %d range %v wider than 1/p-δ; cannot bracket", s.Node, arc)
	}
	const retries = 64
	for try := 0; try < retries; try++ {
		idq1 := hi.Add(-span).Add(rng.Float64() * window)
		n1 := r.Owner(idq1)
		n2 := r.Owner(idq1.Add(span))
		if n1 == s.Node || n2 == s.Node || avoid[n1] || avoid[n2] {
			continue
		}
		// Each node can only match the objects it stores, and their
		// stored sets together cover the arc (§4.4 step 3 guarantees the
		// pair is close enough that no object falls between them).
		return []SubQuery{
			{Node: n1, Ring: rk, Lo: s.Lo, Hi: s.Hi, Est: est.EstimateFinish(n1, s.Size())},
			{Node: n2, Ring: rk, Lo: s.Lo, Hi: s.Hi, Est: est.EstimateFinish(n2, s.Size())},
		}, nil
	}
	return nil, fmt.Errorf("core: could not re-place sub-query around node %d after %d tries", s.Node, retries)
}
