// Package core implements the ROAR algorithm (Chapter 4): replica
// placement on one or more continuous rings, query planning with
// duplicate-free partitioning at any pq ≥ p, the O(n log p) scheduling
// algorithm for heterogeneous servers (Algorithm 1), the range-adjustment
// and sub-query-splitting optimisations, the replica rule that re-sends
// a sub-query around a failed or slow node (§4.4, §4.7), and the
// bookkeeping for changing the partitioning level on the fly. A plan is
// never rewritten around a failed node: the frontend re-sends each leg
// aimed at one, before it is sent or after it fails, through Replace.
//
// The package is deliberately free of networking: it computes *plans*
// (which node matches which slice of the object id space) that the
// frontend executes over TCP and the simulator executes in virtual time.
// Sharing this code between both evaluation paths is what lets the
// Chapter 6 and Chapter 7 experiments exercise identical logic.
package core

import (
	"fmt"

	"roar/internal/ring"
	"roar/internal/store"
)

// Placement captures the replica layout of a ROAR deployment: one or
// more rings (§4.7 multiple sliding windows) plus the current
// partitioning level p. An object at id x is stored, in every ring, on
// all nodes whose range intersects the replication arc [x, x+1/p).
type Placement struct {
	rings []*ring.Ring
	p     int
}

// NewPlacement builds a placement over the given rings. Node ids must be
// globally unique across rings.
func NewPlacement(p int, rings ...*ring.Ring) (*Placement, error) {
	if p <= 0 {
		return nil, fmt.Errorf("core: partitioning level must be positive, got %d", p)
	}
	if len(rings) == 0 {
		return nil, fmt.Errorf("core: placement needs at least one ring")
	}
	seen := map[ring.NodeID]bool{}
	for _, r := range rings {
		for _, id := range r.IDs() {
			if seen[id] {
				return nil, fmt.Errorf("core: node id %d appears on two rings", id)
			}
			seen[id] = true
		}
	}
	return &Placement{rings: rings, p: p}, nil
}

// P returns the current minimum partitioning level.
func (pl *Placement) P() int { return pl.p }

// Rings returns the underlying rings (shared, not copied).
func (pl *Placement) Rings() []*ring.Ring { return pl.rings }

// NodeRange returns the ownership arc of a node, searching all rings.
func (pl *Placement) NodeRange(id ring.NodeID) (ring.Arc, int, error) {
	for k, r := range pl.rings {
		if r.Contains(id) {
			a, err := r.Range(id)
			return a, k, err
		}
	}
	return ring.Arc{}, -1, fmt.Errorf("core: node %d on no ring", id)
}

// CanServe reports whether a node holds every object of the half-open
// id arc (lo, hi], the validity rule of every leg a plan sends (§4.2):
// range adjustment and sub-query splitting (§4.8.2) and the replica rule
// (Replace) place a leg only where it holds. The records a node holds are
// store.StoredSpans of its range, so the rule is that containment, in
// identifier space: what the scheduler may send a node and what the
// coordinator gives it cannot disagree by a float rounding at either
// bound of its stored set.
func (pl *Placement) CanServe(id ring.NodeID, lo, hi ring.Point) bool {
	nodeArc, _, err := pl.NodeRange(id)
	if err != nil {
		return false
	}
	return len(store.Minus(store.ArcSpans(lo, hi), store.StoredSpans(nodeArc, pl.p))) == 0
}
