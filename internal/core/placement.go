// Package core implements the ROAR algorithm (Chapter 4): replica
// placement on one or more continuous rings, query planning with
// duplicate-free partitioning at any pq ≥ p, the O(n log p) scheduling
// algorithm for heterogeneous servers (Algorithm 1), the range-adjustment
// and sub-query-splitting optimisations, the node-failure fallback, and
// the bookkeeping for changing the partitioning level on the fly.
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

// CanServe reports whether a node can correctly match every object in
// the half-open id arc (lo, hi]. A node with range [s, e) stores exactly
// the objects with ids in the open arc (s-1/p, e) — those whose
// replication arc [id, id+1/p) intersects the range — so the condition
// is (lo, hi] ⊆ (s-1/p, e). This is the validity rule behind range
// adjustment (§4.8.2) and sub-query splitting, and the invariant the
// property tests check on every plan. The records a node holds are
// decided exactly, in identifier space, by store.StoredSpans; the tests
// hold CanServe to it: a leg it passes reads only ids its node holds.
func (pl *Placement) CanServe(id ring.NodeID, lo, hi ring.Point) bool {
	size := ring.MatchSpan(lo, hi) // lo == hi means the full ring
	repl := 1 / float64(pl.p)
	nodeArc, _, err := pl.NodeRange(id)
	if err != nil {
		return false
	}
	stored := nodeArc.Length + repl
	if stored >= 1 {
		return true
	}
	// Offsets of (lo, hi] measured from the stored-set origin s-1/p are
	// (d1, d1+size]; all must fall strictly inside (0, stored).
	d1 := nodeArc.Start.Add(-repl).DistCW(lo)
	return d1+size < stored
}
