// Package sw implements the discrete Sliding Window distributed-
// rendezvous baseline of §3.3: n nodes in a circular list, object k
// stored on nodes k..k+r-1, and a query visiting every r-th node from
// one of r possible offsets. SW changes r cheaply (grow/shrink each
// window by one) but has only r scheduling choices, poor behaviour under
// failures, and degrading load balance — the weaknesses ROAR fixes.
package sw

import (
	"fmt"

	"roar/internal/core"
	"roar/internal/ring"
)

// SW is a discrete sliding-window layout over an ordered node list.
type SW struct {
	nodes []ring.NodeID
	r     int
}

// New builds a sliding window over nodes with replication level r.
// For exact query coverage r must divide n (§3.3's "assuming r divides
// n"); other values are rejected to keep the baseline honest.
func New(nodes []ring.NodeID, r int) (*SW, error) {
	if r <= 0 || r > len(nodes) {
		return nil, fmt.Errorf("sw: replication %d invalid for %d nodes", r, len(nodes))
	}
	if len(nodes)%r != 0 {
		return nil, fmt.Errorf("sw: r=%d does not divide n=%d", r, len(nodes))
	}
	return &SW{nodes: append([]ring.NodeID(nil), nodes...), r: r}, nil
}

// R returns the replication level.
func (s *SW) R() int { return s.r }

// P returns the partitioning level n/r.
func (s *SW) P() int { return len(s.nodes) / s.r }

// N returns the node count.
func (s *SW) N() int { return len(s.nodes) }

// Replicas returns the node indices storing object slot k (the window
// k..k+r-1 mod n). Objects are assigned to slots uniformly.
func (s *SW) Replicas(slot int) []ring.NodeID {
	n := len(s.nodes)
	out := make([]ring.NodeID, s.r)
	for i := 0; i < s.r; i++ {
		out[i] = s.nodes[(slot+i)%n]
	}
	return out
}

// Assignment is one sub-query of an SW plan.
type Assignment struct {
	Node ring.NodeID
	Est  float64
}

// Plan is an SW query assignment: p nodes, every r-th from the offset.
type Plan struct {
	Offset int
	Subs   []Assignment
	Delay  float64
}

// Schedule evaluates all r offsets — SW's only degree of freedom (§3.3)
// — and returns the one with the smallest estimated delay. A failed node
// makes its offset unusable (the basic SW algorithm has no finer-grained
// fallback); if all offsets are blocked an error is returned.
func (s *SW) Schedule(est core.Estimator, failed map[ring.NodeID]bool) (Plan, error) {
	n := len(s.nodes)
	p := s.P()
	size := 1 / float64(p)
	var best Plan
	found := false
	for off := 0; off < s.r; off++ {
		plan := Plan{Offset: off, Subs: make([]Assignment, 0, p)}
		ok := true
		for i := 0; i < p; i++ {
			id := s.nodes[(off+i*s.r)%n]
			if failed[id] {
				ok = false
				break
			}
			fin := est.EstimateFinish(id, size)
			plan.Subs = append(plan.Subs, Assignment{Node: id, Est: fin})
			if fin > plan.Delay {
				plan.Delay = fin
			}
		}
		if !ok {
			continue
		}
		if !found || plan.Delay < best.Delay {
			best, found = plan, true
		}
	}
	if !found {
		return Plan{}, fmt.Errorf("sw: every offset hits a failed node")
	}
	return best, nil
}

// ChangeR models §3.3's cheap replication change: growing r by one
// copies 1/n of the data per node (each node replicates its window edge
// to the successor); shrinking r deletes without transfer. Returns the
// fraction of the dataset transferred.
func (s *SW) ChangeR(newR int) (fractionMoved float64, err error) {
	if newR <= 0 || newR > len(s.nodes) {
		return 0, fmt.Errorf("sw: replication %d invalid for %d nodes", newR, len(s.nodes))
	}
	if len(s.nodes)%newR != 0 {
		return 0, fmt.Errorf("sw: r=%d does not divide n=%d", newR, len(s.nodes))
	}
	old := s.r
	s.r = newR
	if newR <= old {
		return 0, nil // deletions only
	}
	// Each +1 step replicates each object once more: (newR-old)/old of
	// the currently stored bytes, i.e. (newR-old)·D objects of D·old
	// stored — as a fraction of the dataset D it is simply newR-old
	// full copies.
	return float64(newR - old), nil
}

// Choices returns SW's scheduling choice count: r (§3.3).
func (s *SW) Choices() float64 { return float64(s.r) }
