package core

import (
	"math/rand"

	"roar/internal/ring"
)

// This file holds the one rule that re-sends a sub-query to other
// replicas. The frontend uses it to hedge a slow sub-query (Tail-
// Tolerant Distributed Search; Dean's "tail at scale" hedging), where the
// primary is only avoided, and to re-place one whose node is suspected
// before it is sent or has failed it (§4.4), where the primary is gone.
// All want the same thing: nodes other than the primary whose stored sets
// cover the sub-query's arc, as few and as fast as possible.

// Replace returns sub-queries that, together, match exactly the object
// arc of s on nodes other than s.Node and those in avoid. Preference
// order:
//
//  1. The cheapest single node, on any ring, that owns s.Hi and can
//     serve the whole arc. With multiple rings (§4.7) every arc has an
//     independent holder on each ring, so a failed or slow node's arc
//     is re-sent as one leg to another ring's owner; that also covers a
//     node whose range is too wide to bracket on its own ring.
//  2. The §4.4 bracket pair on s's ring: two nodes at most 1/p−δ apart
//     whose stored sets jointly cover the arc (failure.go).
//
// Every returned sub-query keeps s's (Lo, Hi] match bounds, so replica
// overlap produces only duplicate ids, which the frontend's merge drops.
func (pl *Placement) Replace(s SubQuery, avoid map[ring.NodeID]bool, est Estimator, rng *rand.Rand) ([]SubQuery, error) {
	best := SubQuery{Ring: -1}
	for k, r := range pl.rings {
		id := r.Owner(s.Hi)
		if id == ring.InvalidNode || id == s.Node || avoid[id] || !pl.CanServe(id, s.Lo, s.Hi) {
			continue
		}
		if fin := est.EstimateFinish(id, s.Size()); best.Ring < 0 || fin < best.Est {
			best = SubQuery{Node: id, Ring: k, Lo: s.Lo, Hi: s.Hi, Est: fin}
		}
	}
	if best.Ring >= 0 {
		return []SubQuery{best}, nil
	}
	return pl.bracket(s, avoid, est, rng)
}
