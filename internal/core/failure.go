package core

import (
	"fmt"
	"math/rand"

	"roar/internal/ring"
)

// This file implements the node-failure fallback of §4.4: when a
// sub-query targets a failed node, it is split in two and sent to nodes
// before and after the failed one, no more than 1/p - δ apart, so every
// object the failed node would have matched is matched by one of them.

// DeltaFraction is the uncertainty margin δ expressed as a fraction of
// 1/p: δ = DeltaFraction/p. It must be large enough that 1/p - δ is
// below 1/p_old for all recently used partitioning levels (§4.4).
const DeltaFraction = 0.02

// RepairPlan rewrites every sub-query aimed at a failed node following
// the §4.4 fallback. The two replacement sub-queries keep the original
// match arc (the "original query ID" of step 4), so together they match
// exactly the failed node's object set; because they are maximally
// separated their stored sets overlap minimally, producing only a few
// duplicate matches, which the frontend deduplicates by object id.
//
// If a replacement also lands on a failed node, a new random placement
// is drawn (the paper's "repeat from step 2"), up to a bounded number of
// retries before reporting failure.
func (pl *Placement) RepairPlan(plan Plan, failed map[ring.NodeID]bool, est Estimator, rng *rand.Rand) (Plan, error) {
	if len(failed) == 0 {
		return plan, nil
	}
	out := plan
	out.Subs = nil
	for _, s := range plan.Subs {
		if !failed[s.Node] {
			out.Subs = append(out.Subs, s)
			continue
		}
		a, b, err := pl.replaceSub(s, failed, est, rng)
		if err != nil {
			return Plan{}, err
		}
		out.Subs = append(out.Subs, a, b)
	}
	out.Delay = out.maxEst()
	return out, nil
}

func (pl *Placement) replaceSub(s SubQuery, failed map[ring.NodeID]bool, est Estimator, rng *rand.Rand) (SubQuery, SubQuery, error) {
	failArc, rk, err := pl.NodeRange(s.Node)
	if err != nil {
		return SubQuery{}, SubQuery{}, fmt.Errorf("core: failed node %d: %w", s.Node, err)
	}
	r := pl.rings[rk]
	repl := 1 / float64(pl.p)
	delta := DeltaFraction * repl
	span := repl - delta
	failHi := failArc.End()
	// idq1 is drawn from (failHi - span, failLo): the window of starting
	// points whose pair (idq1, idq1+span) straddles the failed range.
	// Its width is span - |range|; computing it as a clockwise ring
	// distance would silently wrap to ~1 when the range is wider than
	// the span, yielding pairs that do NOT bracket the failed node and
	// lose matches.
	window := span - failArc.Length
	if window <= 0 {
		return SubQuery{}, SubQuery{}, fmt.Errorf("core: failed node %d range %v wider than 1/p-δ; cannot bracket", s.Node, failArc)
	}
	const retries = 64
	for try := 0; try < retries; try++ {
		idq1 := failHi.Add(-span).Add(rng.Float64() * window)
		idq2 := idq1.Add(span)
		n1 := r.Owner(idq1)
		n2 := r.Owner(idq2)
		if n1 == s.Node || n2 == s.Node || failed[n1] || failed[n2] {
			continue
		}
		// Both replacements carry the original match arc; each node can
		// only match the objects it stores, and their stored sets
		// together cover the arc (§4.4 step 3 guarantees the pair is
		// close enough that no object falls between them).
		a := SubQuery{Node: n1, Ring: rk, Lo: s.Lo, Hi: s.Hi, Est: est.EstimateFinish(n1, s.Size())}
		b := SubQuery{Node: n2, Ring: rk, Lo: s.Lo, Hi: s.Hi, Est: est.EstimateFinish(n2, s.Size())}
		return a, b, nil
	}
	return SubQuery{}, SubQuery{}, fmt.Errorf("core: could not re-place sub-query around failed node %d after %d tries", s.Node, retries)
}

// SafePQ returns the partitioning level the frontend may use while a
// reconfiguration from oldP to newP is in flight (§4.5): increasing p
// (dropping replicas) is safe immediately; decreasing p (adding
// replicas) must wait until every node has confirmed its downloads.
func SafePQ(oldP, newP int, allConfirmed bool) int {
	if newP >= oldP {
		return newP // running with larger pq is always safe
	}
	if allConfirmed {
		return newP
	}
	return oldP
}
