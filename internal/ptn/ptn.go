// Package ptn implements the Partitioned distributed-rendezvous baseline
// of §3.1 — the Google-style cluster algorithm. The n servers are
// divided into p clusters; each object is stored on every server of one
// randomly chosen cluster; a query visits one server per cluster.
//
// PTN is the strongest baseline: it has r^p scheduling choices and is
// simple to administer, but changing the p/r trade-off with n fixed is
// disruptive — a cluster must be destroyed or created and its data
// reloaded, which §3.1 and §6.3 quantify and which this package models.
package ptn

import (
	"fmt"

	"roar/internal/core"
	"roar/internal/ring"
)

// PTN is a cluster-based distributed rendezvous layout.
type PTN struct {
	clusters [][]ring.NodeID
	byNode   map[ring.NodeID]int // node -> cluster index
}

// New divides the given nodes into p clusters as evenly as possible,
// preserving order (node i goes to cluster i mod p, so consecutive
// nodes spread across clusters).
func New(nodes []ring.NodeID, p int) (*PTN, error) {
	if p <= 0 {
		return nil, fmt.Errorf("ptn: p must be positive, got %d", p)
	}
	if len(nodes) < p {
		return nil, fmt.Errorf("ptn: %d nodes cannot form %d clusters", len(nodes), p)
	}
	c := &PTN{clusters: make([][]ring.NodeID, p), byNode: make(map[ring.NodeID]int, len(nodes))}
	for i, id := range nodes {
		k := i % p
		if _, dup := c.byNode[id]; dup {
			return nil, fmt.Errorf("ptn: duplicate node id %d", id)
		}
		c.clusters[k] = append(c.clusters[k], id)
		c.byNode[id] = k
	}
	return c, nil
}

// NewBalanced divides nodes into p clusters of roughly equal total
// processing speed (§3.1: maximum throughput requires computationally
// equivalent clusters). It greedily assigns the fastest remaining node
// to the currently lightest cluster.
func NewBalanced(nodes []ring.NodeID, speeds map[ring.NodeID]float64, p int) (*PTN, error) {
	if p <= 0 || len(nodes) < p {
		return nil, fmt.Errorf("ptn: cannot form %d clusters from %d nodes", p, len(nodes))
	}
	order := append([]ring.NodeID(nil), nodes...)
	// Sort by descending speed (insertion sort: n is small and we avoid
	// an extra dependency on sort with custom keys).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && speeds[order[j]] > speeds[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	c := &PTN{clusters: make([][]ring.NodeID, p), byNode: make(map[ring.NodeID]int, len(nodes))}
	totals := make([]float64, p)
	for _, id := range order {
		light := 0
		for k := 1; k < p; k++ {
			if totals[k] < totals[light] {
				light = k
			}
		}
		c.clusters[light] = append(c.clusters[light], id)
		c.byNode[id] = light
		totals[light] += speeds[id]
	}
	return c, nil
}

// P returns the number of clusters (the partitioning level).
func (c *PTN) P() int { return len(c.clusters) }

// N returns the total number of nodes.
func (c *PTN) N() int { return len(c.byNode) }

// Cluster returns the members of cluster k.
func (c *PTN) Cluster(k int) []ring.NodeID {
	return append([]ring.NodeID(nil), c.clusters[k]...)
}

// ClusterOf returns the cluster index of a node, or -1.
func (c *PTN) ClusterOf(id ring.NodeID) int {
	k, ok := c.byNode[id]
	if !ok {
		return -1
	}
	return k
}

// Assignment is one sub-query of a PTN plan.
type Assignment struct {
	Node    ring.NodeID
	Cluster int
	Est     float64
}

// Plan is a full PTN query assignment: one node per cluster.
type Plan struct {
	Subs  []Assignment
	Delay float64
}

// Schedule picks, in each cluster, the server with the smallest
// estimated finish for a sub-query of size 1/p — the O(n) per-cluster
// scan of §4.8.1. failed nodes are skipped.
func (c *PTN) Schedule(est core.Estimator, failed map[ring.NodeID]bool) (Plan, error) {
	size := 1 / float64(len(c.clusters))
	plan := Plan{Subs: make([]Assignment, 0, len(c.clusters))}
	for k, members := range c.clusters {
		best := Assignment{Cluster: k}
		found := false
		for _, id := range members {
			if failed[id] {
				continue
			}
			fin := est.EstimateFinish(id, size)
			if !found || fin < best.Est {
				best.Node, best.Est, found = id, fin, true
			}
		}
		if !found {
			return Plan{}, fmt.Errorf("ptn: cluster %d has no live nodes; partition %d unavailable", k, k)
		}
		plan.Subs = append(plan.Subs, best)
		if best.Est > plan.Delay {
			plan.Delay = best.Est
		}
	}
	return plan, nil
}

// RepartitionCost models the §3.1/§6.3 cost of changing the cluster
// count from the current p to newP with n fixed, in fractions of the
// total dataset that must be transferred over the network.
//
// Decreasing p (destroying clusters): every object of each destroyed
// cluster must be copied to all servers of a surviving cluster, and the
// freed servers must then load their new cluster's full share.
// Increasing p: servers leave existing clusters to form new ones and
// must load the new cluster's share (objects can be transferred from
// existing clusters to balance).
func (c *PTN) RepartitionCost(newP int) (fractionMoved float64, err error) {
	p := len(c.clusters)
	if newP <= 0 || newP > c.N() {
		return 0, fmt.Errorf("ptn: invalid new partitioning level %d", newP)
	}
	if newP == p {
		return 0, nil
	}
	n := float64(c.N())
	share := 1 / float64(newP) // per-cluster data share after the change
	if newP < p {
		// p-newP clusters destroyed: their data (fraction (p-newP)/p)
		// must be stored on ALL servers of a surviving cluster (§3.1),
		// and the freed servers (n/p each) reload a full new share.
		destroyed := float64(p-newP) / float64(p) * (n / float64(p))
		reload := float64(p-newP) * (n / float64(p)) * share
		return destroyed + reload, nil
	}
	// newP > p: servers leave to form newP-p new clusters of n/newP
	// servers, each loading the new share.
	joining := float64(newP-p) * (n / float64(newP)) * share
	return joining, nil
}

// RemoveNode deletes a node from its cluster (server removal or failure
// acknowledged by the membership layer).
func (c *PTN) RemoveNode(id ring.NodeID) error {
	k, ok := c.byNode[id]
	if !ok {
		return fmt.Errorf("ptn: node %d not present", id)
	}
	members := c.clusters[k]
	for i, m := range members {
		if m == id {
			c.clusters[k] = append(members[:i], members[i+1:]...)
			break
		}
	}
	delete(c.byNode, id)
	return nil
}

// AddNode appends a node to the currently smallest cluster (the §3.1
// default for growing r).
func (c *PTN) AddNode(id ring.NodeID) error {
	if _, dup := c.byNode[id]; dup {
		return fmt.Errorf("ptn: duplicate node id %d", id)
	}
	small := 0
	for k := 1; k < len(c.clusters); k++ {
		if len(c.clusters[k]) < len(c.clusters[small]) {
			small = k
		}
	}
	c.clusters[small] = append(c.clusters[small], id)
	c.byNode[id] = small
	return nil
}

// Choices returns the number of distinct server combinations available
// to a query: r^p with per-cluster replica counts r_k (§3.1). Returned
// as float64 since it overflows quickly.
func (c *PTN) Choices() float64 {
	out := 1.0
	for _, m := range c.clusters {
		out *= float64(len(m))
	}
	return out
}
